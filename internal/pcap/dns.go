package pcap

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
)

// DNS constants.
const (
	DNSPort       = 53
	dnsTypeA      = 1
	dnsClassIN    = 1
	dnsFlagQR     = 1 << 15
	dnsFlagRD     = 1 << 8
	dnsFlagRA     = 1 << 7
	dnsHeaderSize = 12
)

// DNSMessage is a minimal DNS query or response: one A-record question and,
// for responses, one answer. The paper uses DNS traffic only to enumerate
// the domains apps resolve (§III-F), so A queries suffice.
type DNSMessage struct {
	ID       uint16
	Response bool
	Name     string
	// Answer is the resolved address; only meaningful when Response is true.
	Answer netip.Addr
	// TTL of the answer record.
	TTL uint32
}

// EncodeDNS serializes the message in RFC 1035 wire format.
func EncodeDNS(m DNSMessage) ([]byte, error) { return AppendDNS(nil, m) }

// AppendDNS appends the message in RFC 1035 wire format to dst. On error
// it returns dst unchanged.
func AppendDNS(dst []byte, m DNSMessage) ([]byte, error) {
	start := len(dst)
	b := append(dst, make([]byte, dnsHeaderSize)...)
	hdr := b[start:]
	binary.BigEndian.PutUint16(hdr[0:2], m.ID)
	flags := uint16(dnsFlagRD)
	if m.Response {
		flags |= dnsFlagQR | dnsFlagRA
	}
	binary.BigEndian.PutUint16(hdr[2:4], flags)
	binary.BigEndian.PutUint16(hdr[4:6], 1) // QDCOUNT
	if m.Response {
		binary.BigEndian.PutUint16(hdr[6:8], 1) // ANCOUNT
	}

	// Question section.
	nameAt := len(b)
	b, err := appendDNSName(b, m.Name)
	if err != nil {
		return dst, err
	}
	name := b[nameAt:]
	b = binary.BigEndian.AppendUint16(b, dnsTypeA)
	b = binary.BigEndian.AppendUint16(b, dnsClassIN)

	if m.Response {
		if !m.Answer.Is4() {
			return dst, fmt.Errorf("pcap: DNS answer for %s is not an IPv4 address", m.Name)
		}
		b = append(b, name...)
		b = binary.BigEndian.AppendUint16(b, dnsTypeA)
		b = binary.BigEndian.AppendUint16(b, dnsClassIN)
		b = binary.BigEndian.AppendUint32(b, m.TTL)
		b = binary.BigEndian.AppendUint16(b, 4)
		addr := m.Answer.As4()
		b = append(b, addr[:]...)
	}
	return b, nil
}

// DecodeDNS parses a message produced by EncodeDNS (no compression
// pointers; the simulated resolver never emits them). The question name
// is the one string it allocates; the answer name is checked, not built.
func DecodeDNS(data []byte) (DNSMessage, error) {
	if len(data) < dnsHeaderSize {
		return DNSMessage{}, fmt.Errorf("pcap: DNS message of %d bytes shorter than header", len(data))
	}
	m := DNSMessage{ID: binary.BigEndian.Uint16(data[0:2])}
	flags := binary.BigEndian.Uint16(data[2:4])
	m.Response = flags&dnsFlagQR != 0
	qd := binary.BigEndian.Uint16(data[4:6])
	an := binary.BigEndian.Uint16(data[6:8])
	if qd != 1 {
		return DNSMessage{}, fmt.Errorf("pcap: DNS message has %d questions, want 1", qd)
	}
	off, n, err := walkDNSName(data, dnsHeaderSize)
	if err != nil {
		return DNSMessage{}, err
	}
	m.Name = dnsName(data[dnsHeaderSize:off], n)
	off += 4 // QTYPE + QCLASS
	if m.Response {
		if an != 1 {
			return DNSMessage{}, fmt.Errorf("pcap: DNS response has %d answers, want 1", an)
		}
		off, _, err = walkDNSName(data, off)
		if err != nil {
			return DNSMessage{}, fmt.Errorf("pcap: DNS answer name: %w", err)
		}
		if len(data) < off+10+4 {
			return DNSMessage{}, fmt.Errorf("pcap: truncated DNS answer record")
		}
		m.TTL = binary.BigEndian.Uint32(data[off+4 : off+8])
		rdLen := binary.BigEndian.Uint16(data[off+8 : off+10])
		if rdLen != 4 {
			return DNSMessage{}, fmt.Errorf("pcap: DNS A record rdlength %d, want 4", rdLen)
		}
		m.Answer = netip.AddrFrom4([4]byte(data[off+10 : off+14]))
	}
	return m, nil
}

// appendDNSName appends name as a sequence of length-prefixed labels and
// the root label. A single trailing dot is allowed; empty names and
// labels, and labels over 63 bytes, are refused.
func appendDNSName(b []byte, name string) ([]byte, error) {
	if name == "" {
		return b, fmt.Errorf("pcap: empty DNS name")
	}
	rest := strings.TrimSuffix(name, ".")
	for {
		l, tail, more := strings.Cut(rest, ".")
		if l == "" {
			return b, fmt.Errorf("pcap: DNS name %q has an empty label", name)
		}
		if len(l) > 63 {
			return b, fmt.Errorf("pcap: DNS label %q exceeds 63 bytes", l)
		}
		b = append(b, byte(len(l)))
		b = append(b, l...)
		if !more {
			return append(b, 0), nil
		}
		rest = tail
	}
}

// walkDNSName checks the name starting at data[off] and returns the
// offset just past it and the length of its dotted form.
func walkDNSName(data []byte, off int) (end, n int, err error) {
	for {
		if off >= len(data) {
			return 0, 0, fmt.Errorf("pcap: DNS name runs past message end")
		}
		l := int(data[off])
		off++
		if l == 0 {
			break
		}
		if l > 63 {
			return 0, 0, fmt.Errorf("pcap: unsupported DNS label length %d (compression not emitted)", l)
		}
		if off+l > len(data) {
			return 0, 0, fmt.Errorf("pcap: DNS label runs past message end")
		}
		n += 1 + l
		off += l
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("pcap: empty DNS name")
	}
	return off, n - 1, nil
}

// dnsName renders the labels walkDNSName checked as a dotted name of n
// bytes, in one allocation.
func dnsName(labels []byte, n int) string {
	var sb strings.Builder
	sb.Grow(n)
	for labels[0] != 0 {
		if sb.Len() > 0 {
			sb.WriteByte('.')
		}
		l := int(labels[0])
		sb.Write(labels[1 : 1+l])
		labels = labels[1+l:]
	}
	return sb.String()
}
