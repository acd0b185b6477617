package pcap

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/netip"
)

// IP protocol numbers.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// TCP flag bits.
const (
	FlagFIN = 1 << 0
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
)

const (
	ipv4HeaderLen = 20
	tcpHeaderLen  = 20
	udpHeaderLen  = 8
)

// FourTuple is a connection's socket-pair parameters: source/destination
// IPs and ports (§II-A1). It is the join key between supervisor UDP reports
// and TCP streams in the capture.
type FourTuple struct {
	SrcIP   netip.Addr `json:"src_ip"`
	SrcPort uint16     `json:"src_port"`
	DstIP   netip.Addr `json:"dst_ip"`
	DstPort uint16     `json:"dst_port"`
}

// String renders the tuple as "src:port->dst:port".
func (t FourTuple) String() string {
	return fmt.Sprintf("%s:%d->%s:%d", t.SrcIP, t.SrcPort, t.DstIP, t.DstPort)
}

// Reverse returns the tuple of the opposite flow direction.
func (t FourTuple) Reverse() FourTuple {
	return FourTuple{SrcIP: t.DstIP, SrcPort: t.DstPort, DstIP: t.SrcIP, DstPort: t.SrcPort}
}

// Canonical returns a direction-independent representative of the
// connection: the lexicographically smaller of t and t.Reverse(). Both
// directions of one TCP stream share a canonical tuple.
func (t FourTuple) Canonical() FourTuple {
	rev := t.Reverse()
	if t.less(rev) {
		return t
	}
	return rev
}

func (t FourTuple) less(o FourTuple) bool {
	if c := t.SrcIP.Compare(o.SrcIP); c != 0 {
		return c < 0
	}
	if t.SrcPort != o.SrcPort {
		return t.SrcPort < o.SrcPort
	}
	if c := t.DstIP.Compare(o.DstIP); c != 0 {
		return c < 0
	}
	return t.DstPort < o.DstPort
}

// Segment is a decoded transport-layer packet.
type Segment struct {
	Tuple    FourTuple
	Protocol uint8 // ProtoTCP or ProtoUDP
	Flags    uint8 // TCP only
	Seq      uint32
	Ack      uint32
	// Payload is the captured payload: all of it, or none of a snapped
	// segment's.
	Payload []byte
	// WireLen is the total on-wire size (IPv4 header + transport header +
	// payload), the IPv4 total length, whether or not the capture kept
	// the payload; the paper's traffic-volume metric sums this per stream.
	WireLen int
}

// ipChecksum computes the RFC 1071 Internet checksum.
func ipChecksum(b []byte) uint16 { return checksum(0, b) }

// checksum is the Internet checksum of b, with initial (a partial sum of
// 16-bit words, such as a pseudo-header's) already added.
func checksum(initial uint64, b []byte) uint16 { return fold(partialSum(initial, b)) }

// partialSum adds b, taken as big-endian 16-bit words, to the partial sum
// initial, and returns the partial sum unfolded. It sums b as big-endian
// 64-bit words with end-around carry: ones-complement addition is
// associative and commutative, and 2^16 ≡ 1 modulo 0xffff, so folding
// the result equals the 16-bit word sum (RFC 1071 §2), four words per
// add. A trailing partial word is padded with zero bytes on the right, as
// the 16-bit loop pads an odd last byte. The result is zero only when
// every word is, and otherwise the one value in [1, 2^64-1] congruent to
// the word sum modulo 2^64-1, so the sums of a byte string's runs, split
// at even offsets, combine (addSums) to exactly the sum of the whole.
func partialSum(initial uint64, b []byte) uint64 {
	sum, carry := initial, uint64(0)
	for ; len(b) >= 32; b = b[32:] {
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b[0:8]), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b[8:16]), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b[16:24]), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b[24:32]), carry)
	}
	for ; len(b) >= 8; b = b[8:] {
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b), carry)
	}
	var tail uint64
	for i, c := range b {
		tail |= uint64(c) << (56 - 8*i)
	}
	sum, carry = bits.Add64(sum, tail, carry)
	// End-around carry: the add can carry once more only by wrapping sum
	// to zero, after which the last increment cannot.
	sum, carry = bits.Add64(sum, carry, 0)
	return sum + carry
}

// addSums is the ones-complement sum of two partial sums.
func addSums(a, b uint64) uint64 {
	s, carry := bits.Add64(a, b, 0)
	return s + carry
}

// fold reduces a partial sum to the 16-bit Internet checksum.
func fold(sum uint64) uint16 {
	folded := sum>>32 + sum&0xffffffff
	for folded>>16 != 0 {
		folded = folded>>16 + folded&0xffff
	}
	return ^uint16(folded)
}

// Sum is a payload's partial Internet checksum (SumOf). PutTCP and
// PutUDP take it instead of summing the payload themselves, so a payload
// sent many times is summed once.
type Sum uint64

// SumOf returns b's partial checksum.
func SumOf(b []byte) Sum { return Sum(partialSum(0, b)) }

// EncodeTCP builds a raw IPv4+TCP packet in a fresh buffer.
func EncodeTCP(t FourTuple, flags uint8, seq, ack uint32, payload []byte) ([]byte, error) {
	n, err := TCPLen(t, len(payload))
	if err != nil {
		return nil, err
	}
	pkt := make([]byte, n)
	PutTCP(pkt, t, flags, seq, ack, payload, SumOf(payload))
	return pkt, nil
}

// EncodeUDP builds a raw IPv4+UDP packet in a fresh buffer.
func EncodeUDP(t FourTuple, payload []byte) ([]byte, error) {
	n, err := UDPLen(t, len(payload))
	if err != nil {
		return nil, err
	}
	pkt := make([]byte, n)
	PutUDP(pkt, t, payload, SumOf(payload))
	return pkt, nil
}

// TCPLen returns the length of the IPv4+TCP packet carrying n payload
// bytes over t, or the error encoding that packet fails with.
func TCPLen(t FourTuple, n int) (int, error) { return packetLen(t, tcpHeaderLen, n) }

// UDPLen is TCPLen for an IPv4+UDP packet.
func UDPLen(t FourTuple, n int) (int, error) { return packetLen(t, udpHeaderLen, n) }

func packetLen(t FourTuple, transportHdrLen, payloadLen int) (int, error) {
	if !t.SrcIP.Is4() || !t.DstIP.Is4() {
		return 0, fmt.Errorf("pcap: non-IPv4 address in tuple %s", t)
	}
	total := ipv4HeaderLen + transportHdrLen + payloadLen
	if total > 65535 {
		return 0, fmt.Errorf("pcap: packet of %d bytes exceeds IPv4 maximum", total)
	}
	return total, nil
}

// PutTCP encodes a raw IPv4+TCP packet carrying payload into pkt, which
// is the packet's first len(pkt) bytes: all TCPLen(t, len(payload)) of
// them, or — a snapped record — its IPv4 and TCP headers, TCPLen(t, 0)
// bytes, or any length between. The headers describe the whole packet
// either way: the IPv4 total length counts the payload, and sum,
// SumOf(payload), puts it in the TCP checksum. Every byte of pkt is
// written, so it may hold anything before.
func PutTCP(pkt []byte, t FourTuple, flags uint8, seq, ack uint32, payload []byte, sum Sum) {
	b := putIPv4(pkt, t, ProtoTCP, tcpHeaderLen, len(payload))
	binary.BigEndian.PutUint16(b[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], t.DstPort)
	binary.BigEndian.PutUint32(b[4:8], seq)
	binary.BigEndian.PutUint32(b[8:12], ack)
	b[12] = (tcpHeaderLen / 4) << 4 // data offset
	b[13] = flags
	binary.BigEndian.PutUint16(b[14:16], 65535) // window
	copy(b[tcpHeaderLen:], payload)
	binary.BigEndian.PutUint16(b[16:18], transportChecksum(t, ProtoTCP, b[:tcpHeaderLen], len(payload), sum))
}

// PutUDP is PutTCP for a raw IPv4+UDP packet of UDPLen(t, len(payload))
// bytes.
func PutUDP(pkt []byte, t FourTuple, payload []byte, sum Sum) {
	b := putIPv4(pkt, t, ProtoUDP, udpHeaderLen, len(payload))
	binary.BigEndian.PutUint16(b[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], t.DstPort)
	binary.BigEndian.PutUint16(b[4:6], uint16(udpHeaderLen+len(payload)))
	copy(b[udpHeaderLen:], payload)
	binary.BigEndian.PutUint16(b[6:8], transportChecksum(t, ProtoUDP, b[:udpHeaderLen], len(payload), sum))
}

// putIPv4 writes the IPv4 header of a packet carrying payloadLen bytes
// into pkt, zeroes the transport header after it (reserved fields,
// checksum slot), and returns the segment.
func putIPv4(pkt []byte, t FourTuple, proto uint8, transportHdrLen, payloadLen int) []byte {
	clear(pkt[:ipv4HeaderLen+transportHdrLen])
	pkt[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(pkt[2:4], uint16(ipv4HeaderLen+transportHdrLen+payloadLen))
	pkt[8] = 64 // TTL
	pkt[9] = proto
	src := t.SrcIP.As4()
	dst := t.DstIP.As4()
	copy(pkt[12:16], src[:])
	copy(pkt[16:20], dst[:])
	binary.BigEndian.PutUint16(pkt[10:12], ipChecksum(pkt[:ipv4HeaderLen]))
	return pkt[ipv4HeaderLen:]
}

// transportChecksum folds the IPv4 pseudo-header, the transport header
// hdr and the partial sum of the payloadLen bytes after it into one
// ones-complement sum, without materializing the pseudo-header or
// summing the payload again. The payload starts at an even offset of the
// pseudo-header and segment, so the sum is bit-identical to checksumming
// the concatenation.
func transportChecksum(t FourTuple, proto uint8, hdr []byte, payloadLen int, payload Sum) uint16 {
	src := t.SrcIP.As4()
	dst := t.DstIP.As4()
	pseudo := uint64(binary.BigEndian.Uint16(src[0:2])) + uint64(binary.BigEndian.Uint16(src[2:4])) +
		uint64(binary.BigEndian.Uint16(dst[0:2])) + uint64(binary.BigEndian.Uint16(dst[2:4])) +
		uint64(proto) + uint64(uint16(len(hdr)+payloadLen))
	return fold(addSums(partialSum(pseudo, hdr), uint64(payload)))
}

// DecodeSegment parses a whole raw IPv4 packet into a Segment. The
// payload is a lazy slice of data — no copy is made — so the Segment is
// valid only as long as data is.
func DecodeSegment(data []byte) (Segment, error) {
	var seg Segment
	if err := DecodeSegmentInto(&seg, data, len(data)); err != nil {
		return Segment{}, err
	}
	return seg, nil
}

// DecodeSegmentInto parses a captured raw IPv4 packet of origLen wire
// bytes into a reused Segment, overwriting its previous contents without
// allocating. data is the whole packet, or a snapped TCP segment's IPv4
// and TCP headers, as the Reader accepts them (Packet.OrigLen). Like
// DecodeSegment, the payload lazily aliases data — for a Reader's
// packet, the capture itself. On error seg is zeroed.
func DecodeSegmentInto(seg *Segment, data []byte, origLen int) error {
	*seg = Segment{}
	if len(data) > origLen {
		return fmt.Errorf("pcap: %d captured bytes of a %d-byte packet", len(data), origLen)
	}
	if len(data) < ipv4HeaderLen {
		return fmt.Errorf("pcap: packet of %d bytes shorter than IPv4 header", len(data))
	}
	if data[0]>>4 != 4 {
		return fmt.Errorf("pcap: unsupported IP version %d", data[0]>>4)
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < ipv4HeaderLen || len(data) < ihl {
		return fmt.Errorf("pcap: invalid IPv4 header length %d", ihl)
	}
	totalLen := int(binary.BigEndian.Uint16(data[2:4]))
	if totalLen != origLen {
		return fmt.Errorf("pcap: IPv4 total length %d does not match packet length %d", totalLen, origLen)
	}
	proto := data[9]
	srcIP := netip.AddrFrom4([4]byte(data[12:16]))
	dstIP := netip.AddrFrom4([4]byte(data[16:20]))
	transport := data[ihl:]
	switch proto {
	case ProtoTCP:
		if len(transport) < tcpHeaderLen {
			return fmt.Errorf("pcap: truncated TCP header (%d bytes)", len(transport))
		}
		dataOff := int(transport[12]>>4) * 4
		if dataOff < tcpHeaderLen || len(transport) < dataOff {
			return fmt.Errorf("pcap: invalid TCP data offset %d", dataOff)
		}
		seg.Tuple = FourTuple{
			SrcIP:   srcIP,
			SrcPort: binary.BigEndian.Uint16(transport[0:2]),
			DstIP:   dstIP,
			DstPort: binary.BigEndian.Uint16(transport[2:4]),
		}
		seg.Seq = binary.BigEndian.Uint32(transport[4:8])
		seg.Ack = binary.BigEndian.Uint32(transport[8:12])
		seg.Flags = transport[13]
		seg.Payload = transport[dataOff:]
	case ProtoUDP:
		if len(data) < origLen {
			return fmt.Errorf("pcap: UDP datagram captured short (%d of %d bytes)", len(data), origLen)
		}
		if len(transport) < udpHeaderLen {
			return fmt.Errorf("pcap: truncated UDP header (%d bytes)", len(transport))
		}
		udpLen := int(binary.BigEndian.Uint16(transport[4:6]))
		if udpLen != len(transport) {
			return fmt.Errorf("pcap: UDP length %d does not match segment length %d", udpLen, len(transport))
		}
		seg.Tuple = FourTuple{
			SrcIP:   srcIP,
			SrcPort: binary.BigEndian.Uint16(transport[0:2]),
			DstIP:   dstIP,
			DstPort: binary.BigEndian.Uint16(transport[2:4]),
		}
		seg.Payload = transport[udpHeaderLen:]
	default:
		return fmt.Errorf("pcap: unsupported IP protocol %d", proto)
	}
	seg.Protocol = proto
	seg.WireLen = totalLen
	return nil
}
