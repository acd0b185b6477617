package dispatch

import (
	"context"
	"runtime"
	"testing"
	"time"

	"libspector/internal/attribution"
	"libspector/internal/emulator"
	"libspector/internal/faults"
	"libspector/internal/nets"
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
// also ended with a collector barrier, and none may leave state behind.
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
		UseStore:        true,
		UseCollector:    true,
		Attributor:      attribution.NewAttributor(svc),
		Faults:          inj,
		MaxAttempts:     3,
		RetryBackoff:    time.Second,
		Clock:           nets.NewClock(time.Date(2019, time.July, 1, 0, 0, 0, 0, time.UTC)),
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
}
