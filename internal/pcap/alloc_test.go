package pcap

import (
	"math/bits"
	"runtime"
	"testing"
	"time"
)

// encodeAllocCapture renders n equally-sized TCP packets; with snap set,
// each record keeps only its packet's headers.
func encodeAllocCapture(t *testing.T, n int, snap bool) []byte {
	t.Helper()
	w := NewWriter(nil)
	base := time.Date(2019, 7, 1, 12, 0, 0, 0, time.UTC)
	payload := []byte("0123456789abcdef")
	for i := 0; i < n; i++ {
		raw, err := EncodeTCP(testTuple(), FlagACK, uint32(i), 0, payload)
		if err != nil {
			t.Fatal(err)
		}
		p := Packet{Timestamp: base.Add(time.Duration(i) * time.Millisecond), Data: raw}
		if snap {
			p.Data, p.OrigLen = raw[:ipv4HeaderLen+tcpHeaderLen], len(raw)
		}
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	return w.Bytes()
}

// decodeAllocsPerRun measures the allocations of one full pass over a
// capture through the hot path: Next over a View, DecodeSegmentInto into
// a reused Segment.
func decodeAllocsPerRun(t *testing.T, capture []byte) float64 {
	t.Helper()
	var (
		p   Packet
		seg Segment
	)
	return testing.AllocsPerRun(50, func() {
		pr, err := NewReader(InPlace(capture))
		if err != nil {
			t.Fatal(err)
		}
		for pr.Next(&p) == nil {
			if err := DecodeSegmentInto(&seg, p.Data, p.OrigLen); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// The zero-copy decode contract, read in place over whole and snapped
// records: reading and decoding a packet allocates nothing — all
// allocations of a pass are reader setup, independent of packet count.
func TestDecodeAllocsPerPacketIsZero(t *testing.T) {
	t.Run("in place", func(t *testing.T) {
		for _, snap := range []bool{false, true} {
			small := decodeAllocsPerRun(t, encodeAllocCapture(t, 1, snap))
			large := decodeAllocsPerRun(t, encodeAllocCapture(t, 129, snap))
			perPacket := (large - small) / 128
			if perPacket > 0.01 {
				t.Fatalf("snapped %v: decode allocates %.3f allocs/packet (runs: %0.f vs %0.f), want 0", snap, perPacket, small, large)
			}
		}
	})
}

// The writer half of the same contract: once the global header is out,
// appending a packet record allocates nothing, whatever the packet count.
func TestEncodeAllocsPerPacketIsZero(t *testing.T) {
	raw, err := EncodeTCP(testTuple(), FlagACK, 1, 0, []byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	p := Packet{Timestamp: time.Date(2019, 7, 1, 12, 0, 0, 0, time.UTC), Data: raw}
	// Pre-sized past everything the run appends, so the measurement sees
	// the per-record path, never the buffer's growth.
	w := NewWriter(make([]byte, 0, 1<<20))
	if err := w.WritePacket(p); err != nil {
		t.Fatal(err)
	}
	var werr error
	perPacket := testing.AllocsPerRun(1000, func() { werr = w.WritePacket(p) })
	if werr != nil {
		t.Fatal(werr)
	}
	if perPacket != 0 {
		t.Fatalf("WritePacket allocates %.3f allocs/packet, want 0", perPacket)
	}
}

// A fresh writer grows by doubling: a capture that grows the buffer to N
// bytes has allocated at most 2N + 64 KiB in total (64 KiB, 128 KiB, …,
// N), in O(log N) objects. Growing the way append does (~1.25× per step)
// allocates about five times N and fails here.
func TestWriterGrowthDoubles(t *testing.T) {
	raw, err := EncodeTCP(testTuple(), FlagACK, 1, 0, make([]byte, 1400))
	if err != nil {
		t.Fatal(err)
	}
	p := Packet{Timestamp: time.Date(2019, 7, 1, 12, 0, 0, 0, time.UTC), Data: raw}
	const packets = 3000 // ~4.3 MiB of records
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := NewWriter(nil)
	buffers := 1
	for i := 0; i < packets; i++ {
		c := cap(w.Bytes())
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
		if cap(w.Bytes()) != c {
			buffers++
		}
	}
	runtime.ReadMemStats(&after)
	n := cap(w.Bytes())
	if l := len(w.Bytes()); n > 2*l {
		t.Fatalf("capture of %d bytes sits in a %d-byte buffer, more than doubled", l, n)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*n+minWriterCap); got > limit {
		t.Fatalf("growing to %d bytes allocated %d bytes, want at most %d", n, got, limit)
	}
	// 64 KiB, 128 KiB, …, N: log2(N / 64 KiB) + 1 buffers.
	if want := bits.Len(uint(n / minWriterCap)); buffers > want {
		t.Fatalf("growing to %d bytes took %d buffers, want %d", n, buffers, want)
	}
}
