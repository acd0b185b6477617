package dispatch_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"libspector/internal/apk"
	"libspector/internal/dispatch"
	"libspector/internal/dispatch/dispatchtest"
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
	}, store)
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

// fakeRunFiles builds minimal Save inputs for store-shape tests that never
// Load the content back.
func fakeRunFiles(sha string) (dispatch.RunMeta, []byte, []byte, [][]byte, map[string]struct{}) {
	meta := dispatch.RunMeta{
		Package:    "com.fake.app",
		SHA256:     sha,
		Events:     10,
		RecordedAt: time.Date(2019, time.July, 1, 0, 0, 0, 0, time.UTC),
	}
	return meta, []byte("apk"), []byte("pcap"), [][]byte{[]byte("r1"), []byte("r2")}, map[string]struct{}{"sig": {}}
}

// TestArtifactStoreSaveIsAtomic: a Save never leaves temp residue, and
// re-saving the same checksum replaces the previous run in place.
func TestArtifactStoreSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	store, err := dispatch.NewArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sha := strings.Repeat("a", 64)
	meta, apkB, capture, reports, trace := fakeRunFiles(sha)
	if err := store.Save(meta, apkB, capture, reports, trace); err != nil {
		t.Fatal(err)
	}
	// Re-save with different capture bytes: must replace, not fail on the
	// existing directory.
	if err := store.Save(meta, apkB, []byte("pcap-v2"), reports, trace); err != nil {
		t.Fatalf("re-save over an existing run failed: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(dir, sha, "capture.pcap"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("pcap-v2")) {
		t.Errorf("re-save did not replace capture: %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("temp residue left behind: %s", e.Name())
		}
	}
	complete, incomplete, err := store.List()
	if err != nil || len(complete) != 1 || len(incomplete) != 0 {
		t.Errorf("List = %v, %v, %v", complete, incomplete, err)
	}
}

// TestArtifactStoreListReportsIncomplete: partial run directories and
// abandoned temp dirs are surfaced as incomplete, not silently mixed into
// the complete set, and Reanalyze skips them.
func TestArtifactStoreListReportsIncomplete(t *testing.T) {
	dir := t.TempDir()
	store, err := dispatch.NewArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := strings.Repeat("b", 64)
	meta, apkB, capture, reports, trace := fakeRunFiles(good)
	if err := store.Save(meta, apkB, capture, reports, trace); err != nil {
		t.Fatal(err)
	}
	// A torn run directory: right name shape, missing most files — what a
	// pre-atomic Save could leave after a crash.
	torn := strings.Repeat("c", 64)
	if err := os.MkdirAll(filepath.Join(dir, torn), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, torn, "meta.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	// An abandoned temp dir from an interrupted Save.
	if err := os.MkdirAll(filepath.Join(dir, ".tmp-run-dead"), 0o700); err != nil {
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
		t.Errorf("incomplete = %v, want the torn dir and the temp dir", incomplete)
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
		}, store); err != nil {
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

// Evidence is borrowed, never recycled under a sink: with two workers
// passing their capture buffers through Drain's free list, the capture
// must not change while any sink of its event still runs, and every saved
// capture.pcap must hold the bytes the sinks saw.
func TestEvidenceCaptureNotRecycledUnderSinks(t *testing.T) {
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
	sums := make(map[string][sha256.Size]byte) // by apk sha
	uses := make(map[*byte]int)                // by capture buffer
	var current [sha256.Size]byte
	first := dispatch.SinkFunc(func(ev dispatch.RunEvent) error {
		if ev.Kind == dispatch.EventRun {
			current = sha256.Sum256(ev.Evidence.Capture)
			sums[ev.Evidence.Meta.SHA256] = current
			uses[&ev.Evidence.Capture[0]]++
		}
		return nil
	})
	last := dispatch.SinkFunc(func(ev dispatch.RunEvent) error {
		if ev.Kind == dispatch.EventRun && sha256.Sum256(ev.Evidence.Capture) != current {
			t.Errorf("app %d: capture changed while the event's sinks ran", ev.AppIndex)
		}
		return nil
	})
	res, err := dispatch.Drain(events, first, store, last)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != res.Accounting.Completed || len(sums) == 0 {
		t.Fatalf("hashed %d captures for %d completed runs", len(sums), res.Accounting.Completed)
	}
	for sha, want := range sums {
		saved, err := os.ReadFile(filepath.Join(store.Dir(), sha, "capture.pcap"))
		if err != nil {
			t.Fatal(err)
		}
		if sha256.Sum256(saved) != want {
			t.Errorf("%s: saved capture.pcap differs from the capture its sinks consumed", sha)
		}
	}
	reused := false
	for _, n := range uses {
		reused = reused || n > 1
	}
	if !reused {
		t.Fatalf("%d runs used %d distinct capture buffers: none came back for reuse", len(sums), len(uses))
	}
}
