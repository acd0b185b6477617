package dispatch

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"libspector/internal/attribution"
	"libspector/internal/emulator"
	"libspector/internal/journal"
	"libspector/internal/libradar"
	"libspector/internal/obs"
	"libspector/internal/synth"
	"libspector/internal/vtclient"
)

// TestRequeuedReplayObservesAppOnce: a journaled run whose stored
// evidence loads cleanly but fails re-attribution (here a capture torn
// mid-record before it was saved, which the store's checksums cannot see)
// is demoted to a live requeued run. The detector accumulates per-app
// prefix counts, so the app must reach it exactly once — from the live
// run's lifecycle — and not a second time from the abandoned replay.
func TestRequeuedReplayObservesAppOnce(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Seed = 193
	cfg.NumApps = 8
	world, err := synth.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	idx := -1
	var app *synth.App
	for i := 0; i < cfg.NumApps && idx < 0; i++ {
		if app, err = world.GenerateApp(i); err != nil {
			t.Fatal(err)
		}
		if app.APK.SupportsX86() {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("no x86 app in the corpus")
	}
	svc, err := vtclient.NewService(vtclient.NewOracle(193, world.DomainTruth()))
	if err != nil {
		t.Fatal(err)
	}
	opts := emulator.DefaultOptions(193)
	opts.Monkey.Events = 120
	store, err := NewArtifactStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	detector := libradar.NewDetector(nil)
	fleet := Config{
		Workers:      1,
		Emulator:     opts,
		BaseSeed:     193,
		Attributor:   attribution.NewAttributor(svc),
		EmitEvidence: true,
		Artifacts:    store,
		Telemetry:    obs.NewVirtual(nil),
		Shard:        ShardRange{Lo: idx, Hi: idx + 1},
		Resume: &journal.Replay{Outcomes: map[int]journal.AppOutcome{
			idx: {Outcome: journal.OutcomeRun, ArtifactSHA: app.SHA256, Attempts: 1},
		}},
	}

	// The evidence the dead campaign left: everything a real run saves,
	// with the capture cut mid-record. The detector joins afterwards, so
	// it sees the resumed fleet only.
	env := &runEnv{source: world, resolver: world.Resolver, cfg: fleet}
	_, evidence, _, _, err := env.runOne(context.Background(), idx, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	torn := evidence.Capture[:len(evidence.Capture)-7]
	if err := store.Save(evidence.Meta, evidence.APK, torn, evidence.RawReports, evidence.Trace); err != nil {
		t.Fatal(err)
	}

	fleet.Detector = detector
	res, err := RunAll(world, world.Resolver, fleet, store)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if err := fleet.Telemetry.Tracer().WriteJSONL(&trace); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), "reattributing stored evidence") {
		t.Fatalf("the requeue was not a post-load re-attribution error:\n%s", trace.String())
	}
	if len(res.Runs) != 1 {
		t.Fatalf("resumed fleet completed %d runs, want 1", len(res.Runs))
	}
	if got := fleet.Telemetry.Metrics().Snapshot().Counters[obs.MResumeRequeued]; got != 1 {
		t.Fatalf("%s = %d: the replay was not demoted to a live run", obs.MResumeRequeued, got)
	}
	// Finalize(2) detects exactly the prefixes observed in two "apps".
	detector.Finalize(2)
	if n := detector.DetectedCount(); n != 0 {
		t.Fatalf("detector saw the requeued app twice: %d prefixes reached the two-app threshold", n)
	}
	once := libradar.NewDetector(nil)
	if err := once.ObserveApp(app.APK.Manifest.Package, app.Program.Dex.Packages()); err != nil {
		t.Fatal(err)
	}
	once.Finalize(1)
	if once.DetectedCount() == 0 {
		t.Fatal("the app carries no library prefix — the double-observation check above proves nothing")
	}
}
