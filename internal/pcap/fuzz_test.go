package pcap

import (
	"bytes"
	"testing"
)

// FuzzDecodeSegment hardens the IPv4/TCP/UDP decoder.
func FuzzDecodeSegment(f *testing.F) {
	tcp, err := EncodeTCP(testTuple(), FlagPSH|FlagACK, 1, 2, []byte("payload"))
	if err != nil {
		f.Fatal(err)
	}
	udp, err := EncodeUDP(testTuple(), []byte("dgram"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tcp)
	f.Add(udp)
	f.Add([]byte{0x45})
	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := DecodeSegment(data)
		if err != nil {
			return
		}
		if seg.WireLen != len(data) {
			t.Fatalf("accepted segment wire length %d != input %d", seg.WireLen, len(data))
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
		if err := DecodeSegmentInto(&first, pkt.Data); err != nil {
			t.Fatalf("DecodeSegmentInto rejected input DecodeSegment accepted: %v", err)
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
		_ = DecodeSegmentInto(&second, again.Data)
		ReleasePacket(again)

		seg2, err := DecodeSegment(data)
		if err != nil {
			t.Fatalf("re-decode of accepted input failed: %v", err)
		}
		if !bytes.Equal(seg2.Payload, payloadCopy) {
			t.Fatalf("payload copied before recycle diverged from a fresh decode")
		}
	})
}

// FuzzDecodeDNS hardens the DNS message decoder, checking accepted
// messages re-encode.
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
		if err != nil {
			return
		}
		if _, err := EncodeDNS(msg); err != nil {
			t.Fatalf("accepted DNS message does not re-encode: %v", err)
		}
	})
}
