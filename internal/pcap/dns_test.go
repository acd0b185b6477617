package pcap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
	"testing"
)

// refEncodeDNS and refDecodeDNS are the DNS codec AppendDNS and DecodeDNS
// replaced — the name split with strings.Split and rebuilt label by label
// with strings.Join — kept as the reference the allocation-free codec
// must match byte for byte and error for error.
func refEncodeDNS(m DNSMessage) ([]byte, error) {
	name, err := refEncodeDNSName(m.Name)
	if err != nil {
		return nil, err
	}
	b := make([]byte, dnsHeaderSize, dnsHeaderSize+2*len(name)+18)
	binary.BigEndian.PutUint16(b[0:2], m.ID)
	flags := uint16(dnsFlagRD)
	if m.Response {
		flags |= dnsFlagQR | dnsFlagRA
	}
	binary.BigEndian.PutUint16(b[2:4], flags)
	binary.BigEndian.PutUint16(b[4:6], 1)
	if m.Response {
		binary.BigEndian.PutUint16(b[6:8], 1)
	}
	b = append(b, name...)
	b = binary.BigEndian.AppendUint16(b, dnsTypeA)
	b = binary.BigEndian.AppendUint16(b, dnsClassIN)
	if m.Response {
		if !m.Answer.Is4() {
			return nil, fmt.Errorf("pcap: DNS answer for %s is not an IPv4 address", m.Name)
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

func refEncodeDNSName(name string) ([]byte, error) {
	if name == "" {
		return nil, fmt.Errorf("pcap: empty DNS name")
	}
	var out []byte
	for _, l := range strings.Split(strings.TrimSuffix(name, "."), ".") {
		if l == "" {
			return nil, fmt.Errorf("pcap: DNS name %q has an empty label", name)
		}
		if len(l) > 63 {
			return nil, fmt.Errorf("pcap: DNS label %q exceeds 63 bytes", l)
		}
		out = append(out, byte(len(l)))
		out = append(out, l...)
	}
	return append(out, 0), nil
}

func refDecodeDNS(data []byte) (DNSMessage, error) {
	if len(data) < dnsHeaderSize {
		return DNSMessage{}, fmt.Errorf("pcap: DNS message of %d bytes shorter than header", len(data))
	}
	m := DNSMessage{ID: binary.BigEndian.Uint16(data[0:2])}
	m.Response = binary.BigEndian.Uint16(data[2:4])&dnsFlagQR != 0
	qd := binary.BigEndian.Uint16(data[4:6])
	an := binary.BigEndian.Uint16(data[6:8])
	if qd != 1 {
		return DNSMessage{}, fmt.Errorf("pcap: DNS message has %d questions, want 1", qd)
	}
	name, off, err := refDecodeDNSName(data, dnsHeaderSize)
	if err != nil {
		return DNSMessage{}, err
	}
	m.Name = name
	off += 4
	if m.Response {
		if an != 1 {
			return DNSMessage{}, fmt.Errorf("pcap: DNS response has %d answers, want 1", an)
		}
		_, off, err = refDecodeDNSName(data, off)
		if err != nil {
			return DNSMessage{}, fmt.Errorf("pcap: DNS answer name: %w", err)
		}
		if len(data) < off+10+4 {
			return DNSMessage{}, fmt.Errorf("pcap: truncated DNS answer record")
		}
		m.TTL = binary.BigEndian.Uint32(data[off+4 : off+8])
		if rdLen := binary.BigEndian.Uint16(data[off+8 : off+10]); rdLen != 4 {
			return DNSMessage{}, fmt.Errorf("pcap: DNS A record rdlength %d, want 4", rdLen)
		}
		m.Answer = netip.AddrFrom4([4]byte(data[off+10 : off+14]))
	}
	return m, nil
}

func refDecodeDNSName(data []byte, off int) (string, int, error) {
	var labels []string
	for {
		if off >= len(data) {
			return "", 0, fmt.Errorf("pcap: DNS name runs past message end")
		}
		l := int(data[off])
		off++
		if l == 0 {
			break
		}
		if l > 63 {
			return "", 0, fmt.Errorf("pcap: unsupported DNS label length %d (compression not emitted)", l)
		}
		if off+l > len(data) {
			return "", 0, fmt.Errorf("pcap: DNS label runs past message end")
		}
		labels = append(labels, string(data[off:off+l]))
		off += l
	}
	if len(labels) == 0 {
		return "", 0, fmt.Errorf("pcap: empty DNS name")
	}
	return strings.Join(labels, "."), off, nil
}

// AppendDNS writes what the reference writes and fails where it fails,
// with the same text: trailing dots, empty labels, labels over 63 bytes
// and non-IPv4 answers, alone and together.
func TestAppendDNSMatchesReference(t *testing.T) {
	label63, label64 := strings.Repeat("a", 63), strings.Repeat("b", 64)
	names := []string{
		"ads.example.com", "ads.example.com.", "a", "a.", "", ".", "..", "a..", "a..b",
		".a", "a.b.", label63 + ".com", label64 + ".com", "x." + label64, "x.." + label64,
		label64 + "..x", label63 + "." + label63 + ".", "ü.example", "a b.c",
	}
	answers := []netip.Addr{testDst, {}, netip.MustParseAddr("::1"), netip.MustParseAddr("::ffff:198.18.0.1")}
	for _, name := range names {
		for _, response := range []bool{false, true} {
			for _, answer := range answers {
				m := DNSMessage{ID: 0xbeef, Response: response, Name: name, Answer: answer, TTL: 300}
				want, wantErr := refEncodeDNS(m)
				got, err := EncodeDNS(m)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || !bytes.Equal(got, want) {
					t.Fatalf("%+v: EncodeDNS = %x, %v; reference %x, %v", m, got, err, want, wantErr)
				}
				// Appending after a prefix writes the same bytes after it,
				// and a failure leaves the prefix as it was.
				prefix := []byte("prefix")
				appended, err := AppendDNS(prefix, m)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || !bytes.Equal(appended[:len(prefix)], prefix) || !bytes.Equal(appended[len(prefix):], want) {
					t.Fatalf("%+v: AppendDNS after a prefix = %x, %v; reference %x, %v", m, appended, err, want, wantErr)
				}
				if err == nil {
					if back, err := DecodeDNS(got); err != nil || back.Name != strings.TrimSuffix(name, ".") {
						t.Fatalf("%+v: decodes to %+v, %v", m, back, err)
					}
				}
			}
		}
	}
}

// DecodeDNS builds the question name in one allocation and checks the
// answer name without building it.
func TestDecodeDNSAllocatesOnlyTheName(t *testing.T) {
	raw, err := EncodeDNS(DNSMessage{ID: 1, Response: true, Name: "ads.cdn.example.com", Answer: testDst, TTL: 300})
	if err != nil {
		t.Fatal(err)
	}
	var derr error
	if allocs := testing.AllocsPerRun(100, func() { _, derr = DecodeDNS(raw) }); allocs != 1 {
		t.Fatalf("DecodeDNS allocates %.1f objects per response, want 1", allocs)
	}
	if derr != nil {
		t.Fatal(derr)
	}
}
