package pcap

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// refChecksum is the RFC 1071 checksum summed 16 bits at a time, the loop
// the wide-word kernel replaced; it is the reference the kernel must match
// bit for bit.
func refChecksum(initial uint32, b []byte) uint16 {
	sum := initial
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// pseudoInitials are pseudo-header sums the kernel starts from: none, the
// test tuple's TCP pseudo-header, and the largest a pseudo-header can
// reach (six 16-bit words, all 0xffff).
var pseudoInitials = []uint32{0, 0x0a00 + 0x020f + 0xc612 + 0x0001 + ProtoTCP + 1480, 6 * 0xffff}

func TestChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1071))
	random := make([]byte, 2048)
	rng.Read(random)
	ones := bytes.Repeat([]byte{0xff}, 2048)
	for _, src := range [][]byte{random, ones, make([]byte, 2048)} {
		for n := 0; n <= len(src); n++ {
			for _, initial := range pseudoInitials {
				if got, want := checksum(uint64(initial), src[:n]), refChecksum(initial, src[:n]); got != want {
					t.Fatalf("len %d, initial %#x, first byte %#x: kernel %#04x, reference %#04x", n, initial, src[0], got, want)
				}
			}
		}
	}
}

func FuzzChecksum(f *testing.F) {
	f.Add(uint32(0), []byte{})
	f.Add(uint32(0), []byte{0xff})
	f.Add(pseudoInitials[1], bytes.Repeat([]byte{0xff}, 37))
	f.Fuzz(func(t *testing.T, initial uint32, data []byte) {
		// The kernel's callers start from at most a pseudo-header sum.
		initial %= pseudoInitials[2] + 1
		want := refChecksum(initial, data)
		if got := checksum(uint64(initial), data); got != want {
			t.Fatalf("len %d, initial %#x: kernel %#04x, reference %#04x", len(data), initial, got, want)
		}
		// Partial sums of the runs either side of any even offset combine
		// to the checksum of the whole, as transportChecksum combines a
		// header's with a payload's.
		for at := 0; at <= len(data); at += 2 {
			head, tail := partialSum(uint64(initial), data[:at]), partialSum(0, data[at:])
			if got := fold(addSums(head, tail)); got != want {
				t.Fatalf("len %d, initial %#x, split at %d: combined %#04x, reference %#04x", len(data), initial, at, got, want)
			}
		}
	})
}

// BenchmarkChecksum compares the kernel with the 16-bit reference on a
// full-MSS TCP segment.
func BenchmarkChecksum(b *testing.B) {
	seg := make([]byte, 1480)
	rand.New(rand.NewSource(1)).Read(seg)
	var sink uint16
	b.Run("wide", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += checksum(0, seg)
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += refChecksum(0, seg)
		}
	})
	_ = sink
}
