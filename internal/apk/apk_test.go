package apk

import (
	"archive/zip"
	"bytes"
	"compress/flate"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"libspector/internal/dex"
)

func sampleAPK(t *testing.T) *APK {
	t.Helper()
	d := dex.NewFile(time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC))
	methods := []dex.Method{
		{Class: "com.example.app.Main", Name: "onCreate", Params: []string{"Landroid/os/Bundle;"}, Return: "V"},
		{Class: "com.unity3d.ads.b", Name: "a", Return: "V"},
	}
	for _, m := range methods {
		if err := d.AddMethod(m); err != nil {
			t.Fatal(err)
		}
	}
	return &APK{
		Manifest: Manifest{
			Package:      "com.example.app",
			VersionCode:  7,
			Category:     "GAME_PUZZLE",
			MainActivity: "com.example.app.Main",
		},
		Dex:        d,
		NativeABIs: []string{ABIX86, ABIArmeabi},
		DexDate:    d.Created,
		VTScanDate: time.Date(2019, 4, 2, 0, 0, 0, 0, time.UTC),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	a := sampleAPK(t)
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Manifest != a.Manifest {
		t.Errorf("manifest changed: %+v != %+v", decoded.Manifest, a.Manifest)
	}
	if decoded.Dex.MethodCount() != a.Dex.MethodCount() {
		t.Errorf("dex method count changed: %d != %d", decoded.Dex.MethodCount(), a.Dex.MethodCount())
	}
	if len(decoded.NativeABIs) != 2 {
		t.Errorf("ABIs = %v", decoded.NativeABIs)
	}
	if !decoded.DexDate.Equal(a.DexDate) {
		t.Errorf("dex date changed: %v != %v", decoded.DexDate, a.DexDate)
	}
}

func TestChecksumStability(t *testing.T) {
	a := sampleAPK(t)
	e1, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e1, e2) {
		t.Fatal("encoding is not canonical")
	}
	if Checksum(e1) != Checksum(e2) {
		t.Fatal("checksums differ for identical bytes")
	}
	if len(Checksum(e1)) != 64 {
		t.Errorf("checksum %q is not 64 hex chars", Checksum(e1))
	}
}

func TestSupportsX86(t *testing.T) {
	cases := []struct {
		abis []string
		want bool
	}{
		{nil, true}, // pure managed code runs anywhere
		{[]string{ABIX86}, true},
		{[]string{ABIX8664}, true},
		{[]string{ABIArmeabi}, false},
		{[]string{ABIArm64, ABIArmeabi}, false},
		{[]string{ABIArmeabi, ABIX86}, true},
	}
	for _, tc := range cases {
		a := sampleAPK(t)
		a.NativeABIs = tc.abis
		if got := a.SupportsX86(); got != tc.want {
			t.Errorf("SupportsX86(%v) = %v, want %v", tc.abis, got, tc.want)
		}
	}
}

func TestManifestValidation(t *testing.T) {
	base := Manifest{Package: "com.x", VersionCode: 1, Category: "TOOLS", MainActivity: "com.x.Main"}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	broken := []func(*Manifest){
		func(m *Manifest) { m.Package = "" },
		func(m *Manifest) { m.VersionCode = 0 },
		func(m *Manifest) { m.Category = "NOT_A_CATEGORY" },
		func(m *Manifest) { m.MainActivity = "" },
	}
	for i, mutate := range broken {
		m := base
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate the manifest", i)
		}
	}
}

func TestAPKValidation(t *testing.T) {
	a := sampleAPK(t)
	if err := a.Validate(); err != nil {
		t.Fatalf("valid apk rejected: %v", err)
	}
	a.NativeABIs = []string{"mips"}
	if err := a.Validate(); err == nil {
		t.Error("unknown ABI should invalidate")
	}
	a = sampleAPK(t)
	a.Dex = nil
	if err := a.Validate(); err == nil {
		t.Error("missing dex should invalidate")
	}
	a = sampleAPK(t)
	a.Dex = dex.NewFile(time.Now())
	if err := a.Validate(); err == nil {
		t.Error("empty dex should invalidate")
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	a := sampleAPK(t)
	a.Manifest.Package = ""
	if _, err := a.Encode(); err == nil {
		t.Error("encoding an invalid apk should fail")
	}
}

// readers are the two entry points over encoded bytes, Decode and the
// store's Check. They share one walk and must reject the same inputs, so
// every rejection test runs each case through both.
var readers = []struct {
	name string
	read func([]byte) error
}{
	{"Decode", func(b []byte) error { _, err := Decode(b); return err }},
	{"Check", func(b []byte) error { _, err := Check(b); return err }},
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, r := range readers {
		if err := r.read([]byte("definitely not a zip")); err == nil {
			t.Errorf("%s of non-zip should fail", r.name)
		}
		if err := r.read(nil); err == nil {
			t.Errorf("%s of nil should fail", r.name)
		}
	}
}

func TestDecodeRejectsBitFlip(t *testing.T) {
	a := sampleAPK(t)
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range readers {
		// Flip a byte in the middle of the container (deflate stream):
		// the zip CRC must catch it.
		corrupted := append([]byte(nil), data...)
		corrupted[len(corrupted)/2] ^= 0xff
		if err := r.read(corrupted); err == nil {
			// A flip may land in padding; try a sweep to be sure at least
			// one position is detected.
			detected := false
			for off := 30; off < len(data)-30; off += 7 {
				c := append([]byte(nil), data...)
				c[off] ^= 0xff
				if err := r.read(c); err != nil {
					detected = true
					break
				}
			}
			if !detected {
				t.Errorf("%s: no corruption detected across the sweep", r.name)
			}
		}
	}
}

// archive/zip reads a container past bytes around the one Encode wrote:
// appended after its end record, prepended before its first entry, or a
// comment in the end record. Each would be a distinct byte string, with
// its own checksum, of one package; Decode and Check refuse them all.
func TestDecodeRejectsBytesAroundContainer(t *testing.T) {
	data, err := sampleAPK(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	end := data[len(data)-endRecordLen:]
	commented := bytes.Clone(data)
	commented[len(commented)-2] = 1 // comment length
	commented = append(commented, 'x')
	cases := map[string][]byte{
		"byte appended":       append(bytes.Clone(data), 0xFF),
		"end record appended": append(bytes.Clone(data), end...),
		"byte prepended":      append([]byte{0}, data...),
		"comment":             commented,
	}
	for name, c := range cases {
		if _, err := zip.NewReader(bytes.NewReader(c), int64(len(c))); err != nil {
			t.Fatalf("%s: archive/zip rejects it already (%v); the case shows nothing", name, err)
		}
		for _, r := range readers {
			if err := r.read(c); err == nil {
				t.Errorf("%s: %s accepts the container", r.name, name)
			}
		}
	}
	for _, r := range readers {
		if err := r.read(data); err != nil {
			t.Errorf("%s rejects Encode's own container: %v", r.name, err)
		}
	}
}

// zeros reads as an endless stream of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) { clear(p); return len(p), nil }

// A decompression bomb: a ~300 KB apk whose classes.dex inflates to 256
// MiB of zeros. Decode and Check must refuse it on the declared size,
// before inflating anything — the unbounded read allocated over a GiB.
func TestDecodeRejectsZipBomb(t *testing.T) {
	manifestJSON, err := json.Marshal(sampleAPK(t).Manifest)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	zw.RegisterCompressor(zip.Deflate, func(w io.Writer) (io.WriteCloser, error) {
		return flate.NewWriter(w, flate.BestSpeed)
	})
	for _, e := range []struct {
		name    string
		content io.Reader
	}{
		{ManifestTag, bytes.NewReader(manifestJSON)},
		{"classes.dex", io.LimitReader(zeros{}, 256<<20)},
	} {
		w, err := zw.Create(e.name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(w, e.content); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	bomb := buf.Bytes()

	for _, r := range readers {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := r.read(bomb)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a 256 MiB classes.dex should be rejected", r.name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
			t.Errorf("%s: rejecting a %d-byte bomb allocated %d bytes, want under 4 MiB", r.name, len(bomb), alloc)
		}
	}
}

func TestChecksumIntegrityAcrossStore(t *testing.T) {
	a := sampleAPK(t)
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	sum := Checksum(data)
	tampered := append([]byte(nil), data...)
	tampered[10] ^= 1
	if Checksum(tampered) == sum {
		t.Error("checksum unchanged after tampering")
	}
}

func TestDecodeRejectsStructuralProblems(t *testing.T) {
	// Build zip containers by hand to exercise each structural error.
	build := func(entries map[string][]byte) []byte {
		var buf bytes.Buffer
		zw := zip.NewWriter(&buf)
		for name, content := range entries {
			w, err := zw.Create(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write(content); err != nil {
				t.Fatal(err)
			}
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := sampleAPK(t)
	dexBytes, err := valid.Dex.Encode()
	if err != nil {
		t.Fatal(err)
	}
	manifestJSON, err := json.Marshal(valid.Manifest)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		entries map[string][]byte
	}{
		{"missing manifest", map[string][]byte{"classes.dex": dexBytes}},
		{"missing dex", map[string][]byte{ManifestTag: manifestJSON}},
		{"bad manifest json", map[string][]byte{ManifestTag: []byte("{"), "classes.dex": dexBytes}},
		{"bad dex", map[string][]byte{ManifestTag: manifestJSON, "classes.dex": []byte("junk")}},
		{"unexpected entry", map[string][]byte{ManifestTag: manifestJSON, "classes.dex": dexBytes, "assets/x": []byte("y")}},
		{"malformed lib path", map[string][]byte{ManifestTag: manifestJSON, "classes.dex": dexBytes, "lib/deep/x86/libapp.so": []byte("z")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := build(tc.entries)
			for _, r := range readers {
				if err := r.read(data); err == nil {
					t.Errorf("%s: %s should fail", r.name, tc.name)
				}
			}
		})
	}
}

// Check returns the manifest Decode parses, from the same bytes, and
// fails with Decode's error where Decode fails.
func TestCheckAgreesWithDecode(t *testing.T) {
	a := sampleAPK(t)
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Check(data)
	if err != nil || m != a.Manifest {
		t.Fatalf("Check = %+v, %v; want %+v", m, err, a.Manifest)
	}
	for off := 0; off < len(data); off += 3 {
		c := bytes.Clone(data)
		c[off] ^= 0x5a
		decoded, decErr := Decode(c)
		m, checkErr := Check(c)
		switch {
		case (decErr == nil) != (checkErr == nil):
			t.Fatalf("flip at %d: Decode err %v, Check err %v", off, decErr, checkErr)
		case decErr != nil && decErr.Error() != checkErr.Error():
			t.Fatalf("flip at %d: Decode says %q, Check %q", off, decErr, checkErr)
		case decErr == nil && decoded.Manifest != m:
			t.Fatalf("flip at %d: Decode manifest %+v, Check %+v", off, decoded.Manifest, m)
		}
	}
}

// Workers run Check concurrently through its reused buffers; each must
// see only its own apk.
func TestCheckConcurrent(t *testing.T) {
	var encoded [][]byte
	var want []Manifest
	for i := 0; i < 4; i++ {
		a := sampleAPK(t)
		a.Manifest.Package = fmt.Sprintf("com.example.app%d", i)
		for j := 0; j < 50*i; j++ {
			if err := a.Dex.AddMethod(dex.Method{Class: "com.example.C", Name: fmt.Sprintf("m%d", j), Return: "V"}); err != nil {
				t.Fatal(err)
			}
		}
		data, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		encoded, want = append(encoded, data), append(want, a.Manifest)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				i := (w + n) % len(encoded)
				if m, err := Check(encoded[i]); err != nil || m != want[i] {
					t.Errorf("worker %d: Check(apk %d) = %+v, %v; want %+v", w, i, m, err, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
