package dispatch

import (
	"archive/zip"
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"libspector/internal/apk"
	"libspector/internal/attribution"
	"libspector/internal/dex"
	"libspector/internal/emulator"
	"libspector/internal/faults"
	"libspector/internal/obs"
	"libspector/internal/synth"
	"libspector/internal/vtclient"
)

// A retried or requeued app puts the same apk again; the store must keep
// one version of it, and the first put's metadata.
func TestStorePutIsIdempotentPerSHA(t *testing.T) {
	s := NewStore()
	entry, sha := encodeTestAPK(t, "com.app", 1, time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC))
	for i := 0; i < 3; i++ {
		again := entry
		again.VTScanDate = time.Date(2019, time.Month(1+i), 1, 0, 0, 0, 0, time.UTC)
		if err := s.Put(again); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.VersionCount("com.app"); n != 1 {
		t.Fatalf("VersionCount = %d after three puts of one apk, want 1", n)
	}
	got, err := s.Select("com.app")
	if err != nil {
		t.Fatal(err)
	}
	if got.SHA256 != sha || got.Encoded != nil || got.VTScanDate.Month() != time.January {
		t.Errorf("Select = sha %s, %d bytes, scanned %v; want the first put's metadata and no bytes", got.SHA256, len(got.Encoded), got.VTScanDate)
	}
	// A repeat put still validates: the same bytes under a wrong checksum
	// fail, and the stored version is untouched.
	bad := entry
	bad.SHA256 = "wrong"
	if err := s.Put(bad); err == nil {
		t.Error("checksum mismatch on a stored version should fail")
	}
}

// Put runs every §III-A check on the bytes it is given: the server-side
// checksum, the manifest's package, and everything apk.Decode rejects —
// an undecodable or invalid dex, an unknown ABI, a missing entry, an
// entry too large to inflate. Each case is refused with the reason in its
// error, and nothing is stored.
func TestStorePutRejects(t *testing.T) {
	valid, _ := encodeTestAPK(t, "com.app", 1, time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC))
	manifest, err := json.Marshal(apk.Manifest{Package: "com.app", VersionCode: 1, Category: "TOOLS", MainActivity: "com.app.Main"})
	if err != nil {
		t.Fatal(err)
	}
	emptyDex, err := dex.NewFile(time.Time{}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	oneMethod := dex.NewFile(time.Time{})
	if err := oneMethod.AddMethod(dex.Method{Class: "com.app.Main", Name: "onCreate", Return: "V"}); err != nil {
		t.Fatal(err)
	}
	goodDex, err := oneMethod.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Two methods with the same three pool references.
	dupDex := append([]byte("SDEX\x01\x00"), make([]byte, 8)...)
	dupDex = binary.LittleEndian.AppendUint32(dupDex, 3)
	for _, str := range []string{"com.app.Main", "f", "V"} {
		dupDex = append(append(dupDex, byte(len(str))), str...)
	}
	dupDex = binary.LittleEndian.AppendUint32(dupDex, 2)
	dupDex = append(dupDex, 0, 1, 2, 0, 0, 1, 2, 0)

	type entry struct {
		name    string
		content io.Reader
	}
	container := func(entries ...entry) []byte {
		var buf bytes.Buffer
		zw := zip.NewWriter(&buf)
		zw.RegisterCompressor(zip.Deflate, func(w io.Writer) (io.WriteCloser, error) {
			return flate.NewWriter(w, flate.BestSpeed)
		})
		for _, e := range entries {
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
		return buf.Bytes()
	}
	withDex := func(d []byte, more ...entry) []byte {
		return container(append([]entry{{apk.ManifestTag, bytes.NewReader(manifest)}, {"classes.dex", bytes.NewReader(d)}}, more...)...)
	}
	if err := NewStore().Put(StoreEntry{Package: "com.app", Encoded: withDex(goodDex)}); err != nil {
		t.Fatalf("the cases' well-formed container is rejected: %v", err)
	}

	cases := []struct {
		name  string
		entry StoreEntry
		want  string
	}{
		{"checksum mismatch", StoreEntry{Package: "com.app", Encoded: valid.Encoded, SHA256: strings.Repeat("0", 64)}, "checksum mismatch"},
		{"package mismatch", StoreEntry{Package: "com.other", Encoded: valid.Encoded}, "does not match manifest com.app"},
		{"undecodable dex", StoreEntry{Package: "com.app", Encoded: withDex([]byte("junk"))}, "parsing classes.dex"},
		{"duplicate signature", StoreEntry{Package: "com.app", Encoded: withDex(dupDex)}, "duplicate method signature"},
		{"empty dex", StoreEntry{Package: "com.app", Encoded: withDex(emptyDex)}, "empty dex file"},
		{"unknown abi", StoreEntry{Package: "com.app", Encoded: withDex(goodDex, entry{"lib/mips/libapp.so", strings.NewReader("stub")})}, "unknown ABI"},
		{"missing manifest", StoreEntry{Package: "com.app", Encoded: container(entry{"classes.dex", bytes.NewReader(goodDex)})}, "lacks AndroidManifest.json"},
		{"zip bomb", StoreEntry{Package: "com.app", Encoded: container(entry{apk.ManifestTag, bytes.NewReader(manifest)}, entry{"classes.dex", io.LimitReader(zeros{}, 65<<20)})}, "over the"},
	}
	s := NewStore()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := s.Put(tc.entry)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Put = %v, want an error containing %q", err, tc.want)
			}
		})
	}
	if pkgs := s.Packages(); len(pkgs) != 0 {
		t.Errorf("rejected puts stored %v", pkgs)
	}
}

// zeros reads as an endless stream of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) { clear(p); return len(p), nil }

// The store keeps metadata, not apk bytes, so what it retains after a
// corpus is put does not grow with the apks: 512 apps retain at most a
// few hundred bytes per app more than 64 do (a store keeping every
// encoded apk retains ~13 KiB per app more).
func TestStoreRetainedHeapIndependentOfApkBytes(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Seed = 42
	cfg.NumApps = 512
	world, err := synth.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// retained is the heap the store alone holds once the corpus is put:
	// live heap with it, less live heap after it is dropped.
	retained := func(apps int) (int64, int) {
		s := NewStore()
		apkBytes := 0
		for i := 0; i < apps; i++ {
			app, err := world.GenerateApp(i)
			if err != nil {
				t.Fatal(err)
			}
			apkBytes += len(app.Encoded)
			pack := app.APK
			if err := s.Put(StoreEntry{Package: pack.Manifest.Package, Encoded: app.Encoded, SHA256: app.SHA256, DexDate: pack.DexDate, VTScanDate: pack.VTScanDate}); err != nil {
				t.Fatal(err)
			}
		}
		// Two collections before each reading: archive/zip pools a ~1 MB
		// flate writer in a sync.Pool, and one GC only moves it to the
		// pool's victim cache, where the first reading would still count
		// it and the second would not.
		var with, without runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&with)
		runtime.KeepAlive(s)
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&without)
		return int64(with.HeapAlloc) - int64(without.HeapAlloc), apkBytes
	}
	small, _ := retained(64)
	large, apkBytes := retained(512)
	const perApp = 512 // metadata: package, sha256, two dates, map and slice overhead
	if grew := large - small; grew > (512-64)*perApp {
		t.Errorf("store retains %d bytes for 512 apps and %d for 64: %d more, over %d (the 512 apks are %d bytes)",
			large, small, grew, (512-64)*perApp, apkBytes)
	}
}

// TestFaultedCampaignStoresEachAppOnce runs a campaign where 20% of apps
// fault once and are retried: every retry puts its apk again, and the
// store must still hold exactly one version per package. Every attempt
// also ended with a collector barrier and a drain that forgets the app's
// group, and none may leave state behind: the collector's memory does not
// grow with the corpus.
func TestFaultedCampaignStoresEachAppOnce(t *testing.T) {
	var store *Store
	var collector *Collector
	origStore, origCollector := newStore, newCollector
	newStore = func() *Store { store = NewStore(); return store }
	newCollector = func(tel *obs.Telemetry) (*Collector, error) {
		var err error
		collector, err = NewCollector(tel)
		return collector, err
	}
	defer func() { newStore, newCollector = origStore, origCollector }()

	const seed, apps = 61, 40
	cfg := synth.DefaultConfig()
	cfg.Seed = seed
	cfg.NumApps = apps
	world, err := synth.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := vtclient.NewService(vtclient.NewOracle(seed, world.DomainTruth()))
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.New(faults.Config{
		Seed: seed, Rate: 0.2,
		Classes: []faults.Class{faults.EmulatorAbort, faults.CaptureTruncate, faults.DatagramDrop, faults.HookFault},
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := emulator.DefaultOptions(seed)
	opts.Monkey.Events = 120
	events, err := Stream(context.Background(), world, world.Resolver, Config{
		Workers:         2,
		Emulator:        opts,
		BaseSeed:        seed,
		Attributor:      attribution.NewAttributor(svc),
		Faults:          inj,
		MaxAttempts:     3,
		RetryBackoff:    time.Second,
		ContinueOnError: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Drain(events)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accounting.Retried == 0 {
		t.Fatal("no app was retried; the campaign does not exercise repeat puts")
	}
	pkgs := store.Packages()
	if len(pkgs) != apps {
		t.Fatalf("store holds %d packages, want %d", len(pkgs), apps)
	}
	for _, pkg := range pkgs {
		if n := store.VersionCount(pkg); n != 1 {
			t.Errorf("%s: VersionCount = %d, want 1", pkg, n)
		}
	}
	if n := pendingBarriers(collector); n != 0 {
		t.Errorf("collector holds %d barrier entries after the campaign", n)
	}
	if n := reportGroups(collector); n != 0 {
		t.Errorf("collector holds report groups for %d apks after the campaign", n)
	}
}
