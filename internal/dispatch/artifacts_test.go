package dispatch_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"libspector/internal/apk"
	"libspector/internal/attribution"
	"libspector/internal/dex"
	"libspector/internal/dispatch"
	"libspector/internal/dispatch/dispatchtest"
	"libspector/internal/nets"
	"libspector/internal/pcap"
	"libspector/internal/synth"
)

func TestArtifactStoreRoundTrip(t *testing.T) {
	world := smallWorld(t, 51, 6)
	store, err := dispatch.NewArtifactStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	attr := newAttributor(t, 51, world)
	_, runs, err := dispatchtest.Run(world, world.Resolver, dispatch.Config{
		Emulator:   shortOpts(51),
		BaseSeed:   51,
		Attributor: attr,
		Artifacts:  store,
	})
	if err != nil {
		t.Fatal(err)
	}

	shas, incomplete, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(incomplete) != 0 {
		t.Fatalf("clean store reports incomplete entries: %v", incomplete)
	}
	if len(shas) != len(runs) {
		t.Fatalf("stored %d runs, executed %d", len(shas), len(runs))
	}

	// Load one run back and verify integrity.
	stored, err := store.Load(shas[0])
	if err != nil {
		t.Fatal(err)
	}
	if stored.Meta.SHA256 != shas[0] || apk.Checksum(stored.APK) != shas[0] || len(stored.Capture) == 0 {
		t.Error("stored run incomplete")
	}
	if len(stored.Reports) == 0 || len(stored.Trace) == 0 {
		t.Error("stored reports/trace empty")
	}

	// Re-analysis from disk must reproduce the live results exactly.
	replayed, err := store.Reanalyze(newAttributor(t, 51, world), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(runs) {
		t.Fatalf("replayed %d runs, want %d", len(replayed), len(runs))
	}
	bySHA := make(map[string]int64)
	for _, run := range runs {
		for _, f := range run.Flows {
			bySHA[run.AppSHA] += f.TotalBytes()
		}
	}
	for _, run := range replayed {
		var total int64
		for _, f := range run.Flows {
			total += f.TotalBytes()
		}
		if total != bySHA[run.AppSHA] {
			t.Errorf("replayed volume for %s = %d, live = %d", run.AppPackage, total, bySHA[run.AppSHA])
		}
		if run.Join.UnmatchedFlows != 0 || run.Join.ChecksumMismatch != 0 {
			t.Errorf("replayed join anomalies: %+v", run.Join)
		}
		if run.Coverage.TotalMethods == 0 || run.Coverage.ExecutedMethods == 0 {
			t.Errorf("replayed coverage empty for %s", run.AppPackage)
		}
	}
}

func TestArtifactStoreValidation(t *testing.T) {
	if _, err := dispatch.NewArtifactStore(""); err == nil {
		t.Error("empty dir should fail")
	}
	store, err := dispatch.NewArtifactStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(dispatch.RunMeta{}, nil, nil, nil, nil); err == nil {
		t.Error("save without sha should fail")
	}
	if _, err := store.Load("doesnotexist"); err == nil {
		t.Error("loading a missing run should fail")
	}
	if _, err := store.Reanalyze(nil, nil); err == nil {
		t.Error("nil attributor should fail")
	}
	shas, incomplete, err := store.List()
	if err != nil || len(shas) != 0 || len(incomplete) != 0 {
		t.Errorf("empty store List = %v, %v, %v", shas, incomplete, err)
	}
}

// fakeRunFiles builds minimal Save inputs, distinct per name, for
// store-shape tests: the apk is a few bytes that hash to the run's sha
// but decode to no program.
func fakeRunFiles(name string) (dispatch.RunMeta, []byte, []byte, [][]byte, map[string]struct{}) {
	apkBytes := []byte("apk-" + name)
	meta := dispatch.RunMeta{
		Package:    "com.fake.app",
		SHA256:     apk.Checksum(apkBytes),
		Events:     10,
		RecordedAt: time.Date(2019, time.July, 1, 0, 0, 0, 0, time.UTC),
	}
	return meta, apkBytes, []byte("pcap"), nil, map[string]struct{}{"sig": {}}
}

// TestArtifactStoreSaveIsAtomic: a Save never leaves temp residue, and
// re-saving the same checksum replaces the previous run in place.
func TestArtifactStoreSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	store, err := dispatch.NewArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	meta, apkB, capture, reports, trace := fakeRunFiles("a")
	if err := store.Save(meta, apkB, capture, reports, trace); err != nil {
		t.Fatal(err)
	}
	// Re-save with different capture bytes: must replace, not fail on the
	// existing run file.
	if err := store.Save(meta, apkB, []byte("pcap-v2"), reports, trace); err != nil {
		t.Fatalf("re-save over an existing run failed: %v", err)
	}
	stored, err := store.Load(meta.SHA256)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored.Capture, []byte("pcap-v2")) {
		t.Errorf("re-save did not replace capture: %q", stored.Capture)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp residue left behind: %s", e.Name())
		}
	}
	complete, incomplete, err := store.List()
	if err != nil || len(complete) != 1 || len(incomplete) != 0 {
		t.Errorf("List = %v, %v, %v", complete, incomplete, err)
	}
}

// TestArtifactStoreListReportsIncomplete: the temp-file residue of an
// interrupted save and run directories of the retired five-file layout
// are surfaced as incomplete, not silently mixed into the complete set,
// and Reanalyze skips them.
func TestArtifactStoreListReportsIncomplete(t *testing.T) {
	dir := t.TempDir()
	store, err := dispatch.NewArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	meta, apkB, capture, reports, trace := fakeRunFiles("b")
	good := meta.SHA256
	if err := store.Save(meta, apkB, capture, reports, trace); err != nil {
		t.Fatal(err)
	}
	// A run directory of the five-file layout: the store no longer reads
	// it, so resume requeues its run and audit reports it.
	stale := strings.Repeat("c", 64)
	if err := os.MkdirAll(filepath.Join(dir, stale), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, stale, "meta.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The temp file of a save interrupted before its rename.
	if err := os.WriteFile(filepath.Join(dir, good+".run.tmp-dead"), []byte("LSEVID01"), 0o644); err != nil {
		t.Fatal(err)
	}

	complete, incomplete, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(complete) != 1 || complete[0] != good {
		t.Errorf("complete = %v, want [%s]", complete, good)
	}
	if len(incomplete) != 2 {
		t.Errorf("incomplete = %v, want the stale dir and the temp file", incomplete)
	}
	world := smallWorld(t, 107, 1)
	runs, err := store.Reanalyze(newAttributor(t, 107, world), nil)
	// The single complete entry holds fake bytes, so Reanalyze fails on it —
	// but it must fail on the COMPLETE entry, not the incomplete ones.
	if err == nil {
		t.Fatalf("Reanalyze of fake content succeeded: %v", runs)
	}
	if !strings.Contains(err.Error(), good) {
		t.Errorf("Reanalyze error should cite the complete entry: %v", err)
	}
}

// TestArtifactStoreSameSeedByteIdentical: the end-to-end determinism
// guarantee — two fleets from the same seed persist byte-identical
// artifact trees, meta.json included.
func TestArtifactStoreSameSeedByteIdentical(t *testing.T) {
	persist := func(dir string) {
		world := smallWorld(t, 109, 5)
		store, err := dispatch.NewArtifactStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := dispatchtest.Run(world, world.Resolver, dispatch.Config{
			Workers:    2,
			Emulator:   shortOpts(109),
			BaseSeed:   109,
			Attributor: newAttributor(t, 109, world),
			Artifacts:  store,
		}); err != nil {
			t.Fatal(err)
		}
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	persist(dirA)
	persist(dirB)

	var files []string
	if err := filepath.Walk(dirA, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			rel, err := filepath.Rel(dirA, path)
			if err != nil {
				return err
			}
			files = append(files, rel)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("first run persisted nothing")
	}
	for _, rel := range files {
		a, err := os.ReadFile(filepath.Join(dirA, rel))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, rel))
		if err != nil {
			t.Fatalf("run B missing %s: %v", rel, err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between same-seed runs", rel)
		}
	}
}

// The worker that completes a run saves its evidence before the run's
// event is emitted, and the event carries none: with two workers saving
// concurrently, every EventRun reaches the first sink with nil Evidence
// and a run directory that already verifies, whose stored capture,
// reports and trace re-attribute to exactly the event's RunResult.
func TestWorkerSavesEvidenceBeforeEmit(t *testing.T) {
	world := smallWorld(t, 57, 16)
	store, err := dispatch.NewArtifactStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	events, err := dispatch.Stream(context.Background(), world, world.Resolver, dispatch.Config{
		Workers:    2,
		Emulator:   shortOpts(57),
		BaseSeed:   57,
		Attributor: newAttributor(t, 57, world),
		Artifacts:  store,
	})
	if err != nil {
		t.Fatal(err)
	}
	reattr := newAttributor(t, 57, world)
	checked := 0
	first := dispatch.SinkFunc(func(ev dispatch.RunEvent) error {
		if ev.Kind != dispatch.EventRun {
			return nil
		}
		checked++
		if ev.Evidence != nil {
			t.Errorf("app %d: fleet event carries evidence", ev.AppIndex)
		}
		sha := ev.Run.AppSHA
		if err := store.Verify(sha); err != nil {
			t.Errorf("app %d: evidence not saved before emit: %v", ev.AppIndex, err)
			return nil
		}
		if got := reattribute(t, reattr, store, sha); !reflect.DeepEqual(got, ev.Run) {
			t.Errorf("app %d: stored evidence re-attributes to a different result", ev.AppIndex)
		}
		return nil
	})
	res, err := dispatch.Drain(events, first)
	if err != nil {
		t.Fatal(err)
	}
	if checked != res.Accounting.Completed || checked == 0 {
		t.Fatalf("checked %d runs for %d completed", checked, res.Accounting.Completed)
	}
}

// reattribute runs offline attribution over one stored run, as Reanalyze
// does for the whole store.
func reattribute(t *testing.T, attr *attribution.Attributor, store *dispatch.ArtifactStore, sha string) *attribution.RunResult {
	t.Helper()
	stored, err := store.Load(sha)
	if err != nil {
		t.Fatal(err)
	}
	pack, err := apk.Decode(stored.APK)
	if err != nil {
		t.Fatal(err)
	}
	run, err := attr.AnalyzeRun(attribution.RunInput{
		AppSHA:        stored.Meta.SHA256,
		AppPackage:    stored.Meta.Package,
		AppCategory:   stored.Meta.Category,
		Capture:       pcap.InPlace(stored.Capture),
		Reports:       stored.Reports,
		Trace:         stored.Trace,
		Disassembly:   dex.DisassembleFile(pack.Dex),
		LocalAddr:     nets.DefaultLocalAddr,
		CollectorAddr: nets.DefaultCollectorAddr,
		CollectorPort: nets.DefaultCollectorPort,
	})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// countingSource counts the apps a fleet generated.
type countingSource struct {
	*synth.World
	generated atomic.Int64
}

func (c *countingSource) GenerateApp(i int) (*synth.App, error) {
	c.generated.Add(1)
	return c.World.GenerateApp(i)
}

// A failed evidence save is stream-fatal, as a journal append failure
// is, even under ContinueOnError: the stream ends with the save error
// naming the app, the app is neither a per-app failure nor quarantined,
// and the feeder hands out no further apps.
func TestEvidenceSaveFailureStopsStream(t *testing.T) {
	const apps = 24
	world := smallWorld(t, 61, apps)
	root := filepath.Join(t.TempDir(), "artifacts")
	store, err := dispatch.NewArtifactStore(root)
	if err != nil {
		t.Fatal(err)
	}
	// A regular file where the store root was: every save fails.
	if err := os.Remove(root); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(root, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	src := &countingSource{World: world}
	res, runs, err := dispatchtest.Run(src, world.Resolver, dispatch.Config{
		Workers:         2,
		Emulator:        shortOpts(61),
		BaseSeed:        61,
		Attributor:      newAttributor(t, 61, world),
		Artifacts:       store,
		ContinueOnError: true,
		MaxAttempts:     3,
	})
	if err == nil {
		t.Fatal("stream with an unwritable store reported no error")
	}
	if !regexp.MustCompile(`^dispatch: app \d+: saving evidence: `).MatchString(err.Error()) || !errors.Is(err, syscall.ENOTDIR) {
		t.Errorf("error = %v, want the wrapped save error naming the app", err)
	}
	acct := res.Accounting
	if len(runs) != 0 || acct.Completed != 0 || acct.Failed != 0 || acct.Quarantined != 0 || len(res.Failures) != 0 || len(res.Quarantined) != 0 {
		t.Errorf("unsaved runs were accounted as outcomes: %d runs emitted, %+v", len(runs), acct)
	}
	if n := src.generated.Load(); n >= apps/2 {
		t.Errorf("the feeder kept going: %d of %d apps generated", n, apps)
	}
}

// Saves of distinct shas run concurrently into one store, as a fleet's
// workers save; the store then lists and audits clean. Saving a stored
// sha again, as a requeued run does, replaces its entry.
func TestArtifactSaveConcurrentDistinctSHAs(t *testing.T) {
	const apps = 8
	world := smallWorld(t, 67, apps)
	store, err := dispatch.NewArtifactStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	metas := make([]dispatch.RunMeta, apps)
	apks := make([][]byte, apps)
	for i := range metas {
		app, err := world.GenerateApp(i)
		if err != nil {
			t.Fatal(err)
		}
		metas[i] = dispatch.RunMeta{Package: app.APK.Manifest.Package, SHA256: app.SHA256}
		apks[i] = app.Encoded
	}
	trace := map[string]struct{}{"Lcom/example/A;->run()V": {}}
	start := make(chan struct{})
	errs := make(chan error, apps)
	var wg sync.WaitGroup
	for i := range metas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			errs <- store.Save(metas[i], apks[i], []byte{byte(i)}, nil, trace)
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	complete, incomplete, err := store.List()
	if err != nil || len(complete) != apps || len(incomplete) != 0 {
		t.Fatalf("List = %d complete, %v incomplete, %v; want %d, none", len(complete), incomplete, err, apps)
	}
	report, err := store.Audit()
	if err != nil || !report.Clean() || len(report.OK) != apps {
		t.Fatalf("Audit = %+v, %v; want %d clean entries", report, err, apps)
	}

	if err := store.Save(metas[0], apks[0], []byte("fresh"), nil, trace); err != nil {
		t.Fatal(err)
	}
	stored, err := store.Load(metas[0].SHA256)
	if err != nil || string(stored.Capture) != "fresh" {
		t.Fatalf("re-save: capture %q, %v; want the fresh evidence", stored.Capture, err)
	}
	if report, err := store.Audit(); err != nil || !report.Clean() || len(report.OK) != apps {
		t.Fatalf("Audit after re-save = %+v, %v", report, err)
	}
}
