package pcap

import (
	"fmt"
	"testing"
)

// FuzzDecodeSegment hardens the IPv4/TCP/UDP decoder over whole packets
// and short records: the packet is data plus snapped more wire bytes the
// capture did not keep. The decoder is also the Reader's rule for a
// short record, which it may accept only as a TCP segment's headers.
func FuzzDecodeSegment(f *testing.F) {
	tcp, err := EncodeTCP(testTuple(), FlagPSH|FlagACK, 1, 2, []byte("payload"))
	if err != nil {
		f.Fatal(err)
	}
	udp, err := EncodeUDP(testTuple(), []byte("dgram"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tcp, uint16(0))
	f.Add(udp, uint16(0))
	f.Add([]byte{0x45}, uint16(0))
	// Short records: a snapped segment (valid), cut inside its TCP and
	// its IPv4 header, and a short datagram.
	f.Add(tcp[:40], uint16(len(tcp)-40))
	f.Add(tcp[:30], uint16(len(tcp)-30))
	f.Add(tcp[:12], uint16(len(tcp)-12))
	f.Add(udp[:28], uint16(len(udp)-28))
	f.Fuzz(func(t *testing.T, data []byte, snapped uint16) {
		origLen := len(data) + int(snapped)
		var seg Segment
		if err := DecodeSegmentInto(&seg, data, origLen); err != nil {
			return
		}
		if seg.WireLen != origLen {
			t.Fatalf("accepted segment wire length %d != original length %d", seg.WireLen, origLen)
		}
		if snapped > 0 && seg.Protocol != ProtoTCP {
			t.Fatalf("accepted a short record of protocol %d", seg.Protocol)
		}
	})
}

// FuzzDecodeDNS hardens the DNS message decoder, checking it reads what
// the reference decoder reads and fails where it fails, with the same
// text, and that accepted messages re-encode.
func FuzzDecodeDNS(f *testing.F) {
	q, err := EncodeDNS(DNSMessage{ID: 1, Name: "ads.example.com"})
	if err != nil {
		f.Fatal(err)
	}
	r, err := EncodeDNS(DNSMessage{ID: 1, Response: true, Name: "ads.example.com", Answer: testDst, TTL: 300})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(q)
	f.Add(r)
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeDNS(data)
		want, wantErr := refDecodeDNS(data)
		if msg != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("DecodeDNS = %+v, %v; reference %+v, %v", msg, err, want, wantErr)
		}
		if err != nil {
			return
		}
		if _, err := EncodeDNS(msg); err != nil {
			t.Fatalf("accepted DNS message does not re-encode: %v", err)
		}
	})
}
