package pcap

import (
	"bytes"
	"io"
	"math/bits"
	"runtime"
	"testing"
	"time"
)

// encodeAllocCapture renders n equally-sized TCP packets so a reused
// Packet's Data buffer reaches steady state after the first record; with
// snap set, each record keeps only its packet's headers.
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
// capture through the hot path: NextInto into a Packet acquired once,
// DecodeSegmentInto into a reused Segment. src wraps the capture: a
// bytes.Reader streams it, a View is read in place.
func decodeAllocsPerRun(t *testing.T, capture []byte, src func([]byte) io.Reader) float64 {
	t.Helper()
	pkt := AcquirePacket()
	defer ReleasePacket(pkt)
	var seg Segment
	return testing.AllocsPerRun(50, func() {
		pr, err := NewReader(src(capture))
		if err != nil {
			t.Fatal(err)
		}
		p := pkt
		if pr.InPlace() {
			// A packet read in place aliases the capture; it must not go
			// back to the pool.
			p = &Packet{}
		}
		for {
			if err := pr.NextInto(p); err != nil {
				break
			}
			if err := DecodeSegmentInto(&seg, p.Data, p.OrigLen); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// The zero-copy decode contract, streaming and in place, over whole and
// snapped records: once a streamed Packet's buffer is warm, reading and
// decoding a packet allocates nothing — all allocations of a pass are
// reader setup, independent of packet count. In place there is no buffer
// to warm.
func TestDecodeAllocsPerPacketIsZero(t *testing.T) {
	for name, src := range map[string]func([]byte) io.Reader{
		"streaming": func(b []byte) io.Reader { return bytes.NewReader(b) },
		"in place":  func(b []byte) io.Reader { return InPlace(b) },
	} {
		t.Run(name, func(t *testing.T) {
			for _, snap := range []bool{false, true} {
				small := decodeAllocsPerRun(t, encodeAllocCapture(t, 1, snap), src)
				large := decodeAllocsPerRun(t, encodeAllocCapture(t, 129, snap), src)
				perPacket := (large - small) / 128
				if perPacket > 0.01 {
					t.Fatalf("snapped %v: decode allocates %.3f allocs/packet (runs: %0.f vs %0.f), want 0", snap, perPacket, small, large)
				}
			}
		})
	}
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
