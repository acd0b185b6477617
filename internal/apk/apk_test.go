package apk

import (
	"archive/zip"
	"bytes"
	"compress/flate"
	"encoding/json"
	"io"
	"runtime"
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

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("definitely not a zip")); err == nil {
		t.Error("Decode of non-zip should fail")
	}
	if _, err := Decode(nil); err == nil {
		t.Error("Decode of nil should fail")
	}
}

func TestDecodeRejectsBitFlip(t *testing.T) {
	a := sampleAPK(t)
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the container (deflate stream): the
	// zip CRC must catch it.
	corrupted := append([]byte(nil), data...)
	corrupted[len(corrupted)/2] ^= 0xff
	if _, err := Decode(corrupted); err == nil {
		// A flip may land in padding; try a sweep to be sure at least one
		// position is detected.
		detected := false
		for off := 30; off < len(data)-30; off += 7 {
			c := append([]byte(nil), data...)
			c[off] ^= 0xff
			if _, err := Decode(c); err != nil {
				detected = true
				break
			}
		}
		if !detected {
			t.Error("no corruption detected across the sweep")
		}
	}
}

// zeros reads as an endless stream of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) { clear(p); return len(p), nil }

// A decompression bomb: a ~300 KB apk whose classes.dex inflates to 256
// MiB of zeros. Decode must refuse it on the declared size, before
// inflating anything — the unbounded read allocated over a GiB.
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

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Decode(bomb)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 256 MiB classes.dex should be rejected")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Errorf("rejecting a %d-byte bomb allocated %d bytes, want under 4 MiB", len(bomb), alloc)
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
			if _, err := Decode(build(tc.entries)); err == nil {
				t.Errorf("%s should fail to decode", tc.name)
			}
		})
	}
}
