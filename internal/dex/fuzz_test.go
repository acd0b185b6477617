package dex

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"libspector/internal/codec"
)

// FuzzParseTypeSignature checks the smali signature parser is total and
// that parse→render→parse is stable.
func FuzzParseTypeSignature(f *testing.F) {
	f.Add("Lcom/unity3d/ads/android/cache/b;->doInBackground([Ljava/lang/String;)Ljava/lang/Object;")
	f.Add("La/B;->f()V")
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, sig string) {
		m, err := ParseTypeSignature(sig)
		if err != nil {
			return
		}
		again, err := ParseTypeSignature(m.TypeSignature())
		if err != nil {
			t.Fatalf("rendered signature does not re-parse: %v", err)
		}
		if again.TypeSignature() != m.TypeSignature() {
			t.Fatalf("signature not stable: %q vs %q", again.TypeSignature(), m.TypeSignature())
		}
	})
}

// Decoding an n-byte container may allocate at most decodeAllocPerByte·n
// + decodeAllocBase bytes. A method takes at least four container bytes
// and ~300 bytes of File (method, signature header, index entries and the
// first arena chunks' share), and its signature at most
// maxSignatureExpansion bytes per container byte, in arena chunks that
// at most double; the base covers the fuzzing engine's own allocations.
const (
	decodeAllocPerByte = 4 * maxSignatureExpansion
	decodeAllocBase    = 1 << 20
)

// sdexContainer hand-assembles an SDEX container: the pool, then each
// method as its wire references (class, name, return, params...).
func sdexContainer(count uint32, pool []string, methods [][]uint64) []byte {
	b := append([]byte("SDEX"), 1, 0)
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(pool)))
	for _, s := range pool {
		b = codec.AppendString(b, s)
	}
	b = binary.LittleEndian.AppendUint32(b, count)
	for _, refs := range methods {
		b = binary.AppendUvarint(b, refs[0])
		b = binary.AppendUvarint(b, refs[1])
		b = binary.AppendUvarint(b, refs[2])
		b = binary.AppendUvarint(b, uint64(len(refs)-3))
		for _, r := range refs[3:] {
			b = binary.AppendUvarint(b, r)
		}
	}
	return b
}

// amplifiedContainer is a few kilobytes whose methods each take one long
// pool string as a thousand parameters: megabytes of signatures apiece.
func amplifiedContainer() []byte {
	pool := []string{"a.B", "V", "L" + strings.Repeat("x", 4000) + ";"}
	var methods [][]uint64
	for i := 0; i < 16; i++ {
		refs := []uint64{0, 1, 1}
		for j := 0; j < 1000+i; j++ {
			refs = append(refs, 2)
		}
		methods = append(methods, refs)
	}
	return sdexContainer(uint32(len(methods)), pool, methods)
}

// A container whose signatures would expand past maxSignatureExpansion
// bytes per container byte is rejected before any of them is rendered.
func TestDecodeRejectsSignatureAmplification(t *testing.T) {
	data := amplifiedContainer()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(data)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "per container byte") {
		t.Fatalf("Decode of a %d-byte container rendering ~64 MB of signatures: err = %v", len(data), err)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(decodeAllocPerByte*len(data)+decodeAllocBase); got > limit {
		t.Errorf("rejecting it allocated %d bytes, limit %d", got, limit)
	}
}

// FuzzDecode hardens the SDEX decoder: errors are fine, panics and
// allocations out of proportion to the input are not. A forged method
// count in particular must not presize the file, its arenas or its
// indexes beyond what the bytes left could hold.
func FuzzDecode(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("..", "codec", "testdata", "sdex.bin"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	// A count the bytes left just cover, though they decode as duplicate
	// methods after the first.
	f.Add(append(sdexContainer(1<<14, []string{"a.B", "f", "V"}, [][]uint64{{0, 1, 2}}), make([]byte, 1<<14)...))
	f.Add(amplifiedContainer())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		file, err := Decode(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(decodeAllocPerByte*len(data)+decodeAllocBase); got > limit {
			t.Fatalf("decoding a %d-byte container allocated %d bytes, limit %d", len(data), got, limit)
		}
		if err := agree(data, file, err); err != nil {
			t.Fatal(err)
		}
		if err != nil {
			return
		}
		if err := checkRenderedOnce(file); err != nil {
			t.Fatal(err)
		}
	})
}

// agree reports how Check's verdict on data differs from Decode's (file,
// decodeErr): it must accept and reject the same containers, with the
// same error, and count the same methods.
func agree(data []byte, file *File, decodeErr error) error {
	n, err := Check(data)
	switch {
	case (err == nil) != (decodeErr == nil):
		return fmt.Errorf("Check err %v, Decode err %v", err, decodeErr)
	case err != nil && err.Error() != decodeErr.Error():
		return fmt.Errorf("Check says %q, Decode %q", err, decodeErr)
	case err == nil && n != file.MethodCount():
		return fmt.Errorf("Check counts %d methods, Decode %d", n, file.MethodCount())
	}
	return nil
}

// Check and Decode share one walk: over random mutations of the fixture
// (byte flips, cuts, appended tails, small pool references) and a few
// hand-built containers (amplified, duplicate method, empty) they must
// agree on every input.
func TestCheckAgreesWithDecode(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("..", "codec", "testdata", "sdex.bin"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	accepted := 0
	for i := 0; i < 20000; i++ {
		data := bytes.Clone(fixture)
		switch rng.Intn(4) {
		case 0:
			data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
		case 1:
			data = data[:rng.Intn(len(data))]
		case 2:
			data = append(data, data[rng.Intn(len(data)):]...)
		default:
			for j := 0; j < 1+rng.Intn(4); j++ {
				data[rng.Intn(len(data))] = byte(rng.Intn(4))
			}
		}
		file, err := Decode(data)
		if err == nil {
			accepted++
		}
		if err := agree(data, file, err); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
	}
	for _, data := range [][]byte{fixture, amplifiedContainer(), sdexContainer(2, []string{"a.B", "f", "V"}, [][]uint64{{0, 1, 2}, {0, 1, 2}}), {}} {
		file, err := Decode(data)
		if err := agree(data, file, err); err != nil {
			t.Fatal(err)
		}
	}
	if accepted == 0 {
		t.Error("no mutation was accepted; the agreement on accepted inputs went unchecked")
	}
}
