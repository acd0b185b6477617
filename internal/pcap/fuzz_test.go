package pcap

import (
	"bytes"
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
		// Pool-recycle discipline: decode into a pooled packet's buffer,
		// copy the lazily-aliased payload (the ownership contract), then
		// recycle the packet, overwrite the recycled buffer as the next
		// capture would, and decode again. The copy taken before the
		// recycle must survive byte-for-byte — anything else means the
		// copy still aliased pool-owned memory.
		pkt := AcquirePacket()
		pkt.Data = append(pkt.Data[:0], data...)
		var first Segment
		if err := DecodeSegmentInto(&first, pkt.Data, origLen); err != nil {
			t.Fatalf("decode into a pooled buffer rejected accepted input: %v", err)
		}
		payloadCopy := append([]byte(nil), first.Payload...)
		ReleasePacket(pkt)

		again := AcquirePacket()
		again.Data = append(again.Data[:0], data...)
		for i := range again.Data {
			again.Data[i] ^= 0xff
		}
		var second Segment
		// Re-decode over the mutated recycled buffer may accept or
		// reject; it must not panic and must not disturb the copy.
		_ = DecodeSegmentInto(&second, again.Data, origLen)
		ReleasePacket(again)

		if err := DecodeSegmentInto(&seg, data, origLen); err != nil {
			t.Fatalf("re-decode of accepted input failed: %v", err)
		}
		if !bytes.Equal(seg.Payload, payloadCopy) {
			t.Fatalf("payload copied before recycle diverged from a fresh decode")
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
