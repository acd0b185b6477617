package libspector_test

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"libspector"
	"libspector/internal/corpus"
	"libspector/internal/dispatch"
)

// smallConfig is a fast facade-level configuration.
func smallConfig(seed uint64, apps int) libspector.Config {
	cfg := libspector.DefaultConfig()
	cfg.Seed = seed
	cfg.Apps = apps
	cfg.MonkeyEvents = 120
	return cfg
}

func TestExperimentEndToEnd(t *testing.T) {
	exp, err := libspector.NewExperiment(smallConfig(41, 20))
	if err != nil {
		t.Fatal(err)
	}
	if exp.Dataset() != nil || exp.Result() != nil {
		t.Error("dataset/result should be nil before Run")
	}
	if err := exp.Run(); err != nil {
		t.Fatal(err)
	}
	ds := exp.Dataset()
	if ds == nil {
		t.Fatal("nil dataset after Run")
	}
	totals := ds.ComputeTotals()
	if totals.Flows == 0 || totals.DistinctApps == 0 {
		t.Errorf("empty totals: %+v", totals)
	}
	if totals.BytesReceived <= totals.BytesSent {
		t.Error("received should dominate sent")
	}
	m := ds.Fig2CategoryTransfer()
	if m.Total == 0 {
		t.Error("Fig2 empty")
	}
	// The detector and domain service are live and usable.
	if got := exp.Detector().Categorize("com.unity3d.ads.android.cache"); got != corpus.LibAdvertisement {
		t.Errorf("detector category = %s", got)
	}
	if exp.Domains().CachedDomains() == 0 {
		t.Error("domain service never consulted")
	}
	if exp.World().NumApps() != 20 {
		t.Errorf("world size = %d", exp.World().NumApps())
	}
	if exp.Attributor() == nil {
		t.Error("nil attributor")
	}
}

func TestRunSingleApp(t *testing.T) {
	exp, err := libspector.NewExperiment(smallConfig(43, 10))
	if err != nil {
		t.Fatal(err)
	}
	var ok bool
	for i := 0; i < 10; i++ {
		run, err := exp.RunSingleApp(i)
		if err != nil {
			continue // ARM-only exclusion
		}
		ok = true
		if run.AppPackage == "" || len(run.Flows) == 0 {
			t.Errorf("app %d: empty result", i)
		}
		if run.Coverage.Percent() <= 0 {
			t.Errorf("app %d: no coverage", i)
		}
		break
	}
	if !ok {
		t.Error("no single app ran")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := libspector.DefaultConfig()
	if cfg.Apps != 500 {
		t.Errorf("default apps = %d", cfg.Apps)
	}
	if cfg.MonkeyEvents != 1000 || cfg.Throttle != 500*time.Millisecond {
		t.Errorf("default monkey = %d events / %v", cfg.MonkeyEvents, cfg.Throttle)
	}
}

func TestExperimentDeterminism(t *testing.T) {
	run := func() int64 {
		exp, err := libspector.NewExperiment(smallConfig(47, 10))
		if err != nil {
			t.Fatal(err)
		}
		if err := exp.Run(); err != nil {
			t.Fatal(err)
		}
		return exp.Dataset().ComputeTotals().TotalBytes()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("experiments with identical configs differ: %d vs %d bytes", a, b)
	}
}

// TestExperimentWithAllOptions drives the facade with artifact persistence
// on top of the collector and the apk store every campaign runs.
func TestExperimentWithAllOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("option-matrix fleet run skipped in -short mode")
	}
	cfg := smallConfig(53, 12)
	cfg.ArtifactDir = t.TempDir()
	exp, err := libspector.NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Run(); err != nil {
		t.Fatal(err)
	}
	res := exp.Result()
	if res.CollectorReports == 0 || res.CollectorMalformed != 0 {
		t.Errorf("collector totals: %d reports, %d malformed", res.CollectorReports, res.CollectorMalformed)
	}
	// Artifacts were persisted for every analyzed run.
	store, err := dispatch.NewArtifactStore(cfg.ArtifactDir)
	if err != nil {
		t.Fatal(err)
	}
	shas, incomplete, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(incomplete) != 0 {
		t.Errorf("store reports incomplete entries: %v", incomplete)
	}
	if len(shas) != res.Accounting.Completed {
		t.Errorf("persisted %d artifacts for %d runs", len(shas), res.Accounting.Completed)
	}
}

// TestExperimentRunContextCancelled cancels a fleet mid-run through a sink
// and checks the facade surfaces the cancellation while still exposing the
// partial Result, Dataset, and Aggregates over the completed prefix.
func TestExperimentRunContextCancelled(t *testing.T) {
	const apps = 40
	cfg := smallConfig(59, apps)
	cfg.Workers = 2
	exp, err := libspector.NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err = exp.RunContext(ctx, dispatch.SinkFunc(func(ev dispatch.RunEvent) error {
		if ev.Kind != dispatch.EventSummary {
			cancel() // first per-app event stops the fleet
		}
		return nil
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled", err)
	}
	res, ds, ag := exp.Result(), exp.Dataset(), exp.Aggregates()
	if res == nil || ds == nil || ag == nil {
		t.Fatal("cancelled run must still expose partial result/dataset/aggregates")
	}
	if done := res.Accounting.Completed + res.Accounting.SkippedARMOnly; done >= apps {
		t.Errorf("cancellation did not stop the fleet: %d of %d apps visited", done, apps)
	}
	if ag.Runs != res.Accounting.Completed {
		t.Errorf("aggregates folded %d runs, ledger counts %d", ag.Runs, res.Accounting.Completed)
	}
	// The partial aggregates still agree with the batch view of the prefix.
	if got, want := ag.ComputeTotals(), ds.ComputeTotals(); got != want {
		t.Errorf("partial totals diverge: streaming %+v, batch %+v", got, want)
	}
}

// TestRunContextSlowSinkAfterCancel: a cancelled stream still delivers
// every event, however slowly the consumer drains. The sink takes 300 ms
// over every per-app event and cancels at the end of the first, so both
// workers and the buffer are backed up behind it when the fleet stops;
// the ledger, the sink and the fold must still agree on every completed
// run.
func TestRunContextSlowSinkAfterCancel(t *testing.T) {
	cfg := smallConfig(59, 40)
	cfg.Workers = 2
	exp, err := libspector.NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	perApp, runs := 0, 0
	err = exp.RunContext(ctx, dispatch.SinkFunc(func(ev dispatch.RunEvent) error {
		if ev.Kind == dispatch.EventSummary {
			return nil
		}
		time.Sleep(300 * time.Millisecond)
		if perApp++; perApp == 1 {
			cancel()
		}
		if ev.Kind == dispatch.EventRun {
			runs++
		}
		return nil
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled", err)
	}
	if got := exp.Result().Accounting.Completed; got != runs {
		t.Errorf("ledger counts %d completed runs, the sink saw %d", got, runs)
	}
	if got := exp.Aggregates().Runs; got != runs {
		t.Errorf("aggregates folded %d runs, the sink saw %d", got, runs)
	}
}

// TestExperimentRetainedHeapIndependentOfRuns: a finished Experiment keeps
// its Dataset's records and aggregates, never the RunResults that produced
// them, so its retained heap grows by at most 16 KiB per app from 64 to
// 256 apps. Keeping every run (flows and payload snippets) costs about
// 60 KiB per app.
func TestExperimentRetainedHeapIndependentOfRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("two whole campaigns skipped in -short mode")
	}
	// retained is the heap a finished experiment alone holds: live heap
	// with it, less live heap after it is dropped. Two collections before
	// each reading, so a sync.Pool's victim cache is empty by the second.
	retained := func(apps int) int64 {
		cfg := smallConfig(42, apps)
		cfg.Workers = 2
		exp, err := libspector.NewExperiment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := exp.Run(); err != nil {
			t.Fatal(err)
		}
		var with, without runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&with)
		runtime.KeepAlive(exp)
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&without)
		return int64(with.HeapAlloc) - int64(without.HeapAlloc)
	}
	small, large := retained(64), retained(256)
	t.Logf("retained heap: %d KiB at 64 apps, %d KiB at 256", small>>10, large>>10)
	const perApp = 16 << 10
	if grew := large - small; grew > (256-64)*perApp {
		t.Errorf("experiment retains %d bytes at 256 apps and %d at 64: %d KiB per extra app, over %d",
			large, small, grew/(256-64)>>10, perApp>>10)
	}
}

// TestExperimentAggregatesMatchDataset checks the facade-level contract
// that Aggregates reproduces Dataset's serialized summary byte-for-byte on
// a clean run.
func TestExperimentAggregatesMatchDataset(t *testing.T) {
	exp, err := libspector.NewExperiment(smallConfig(57, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Run(); err != nil {
		t.Fatal(err)
	}
	var batch, stream bytes.Buffer
	if err := exp.Dataset().Summarize(25).WriteJSON(&batch); err != nil {
		t.Fatal(err)
	}
	if err := exp.Aggregates().Summarize(25).WriteJSON(&stream); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(batch.Bytes(), stream.Bytes()) {
		t.Error("facade summaries diverge between batch and streaming paths")
	}
}

// TestLargeScaleFleet exercises the pipeline at a 1,000-app scale — small
// next to the paper's 25,000 but large enough to stress the parallel
// dispatcher and confirm the headline shapes hold beyond the calibration
// corpus size.
func TestLargeScaleFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale fleet run skipped in -short mode")
	}
	cfg := libspector.DefaultConfig()
	cfg.Seed = 4242
	cfg.Apps = 1000
	cfg.MonkeyEvents = 300
	exp, err := libspector.NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Run(); err != nil {
		t.Fatal(err)
	}
	ds := exp.Dataset()
	totals := ds.ComputeTotals()
	if totals.DistinctApps < 900 {
		t.Fatalf("only %d of 1000 apps produced traffic", totals.DistinctApps)
	}
	m := ds.Fig2CategoryTransfer()
	ads := m.LegendShare[corpus.LibAdvertisement]
	if ads < 0.20 || ads > 0.36 {
		t.Errorf("ads share at scale = %.3f, want ~0.28", ads)
	}
	ant := ds.Fig6AnTShares()
	if ant.FracAnTOnly < 0.28 || ant.FracAnTOnly > 0.42 {
		t.Errorf("AnT-only at scale = %.3f, want ~0.35", ant.FracAnTOnly)
	}
	cov := ds.Fig10Coverage()
	if cov.Mean < 6 || cov.Mean > 15 {
		t.Errorf("coverage mean at scale = %.2f, want ~9.5", cov.Mean)
	}
}

// TestExperimentWithFaultInjection drives the facade's fault knobs: a fully
// transient-faulted fleet with one retry must recover every app, match the
// clean run's analysis exactly, and report the degradation ledger.
func TestExperimentWithFaultInjection(t *testing.T) {
	const apps = 12
	clean, err := libspector.NewExperiment(smallConfig(67, apps))
	if err != nil {
		t.Fatal(err)
	}
	if err := clean.Run(); err != nil {
		t.Fatal(err)
	}

	cfg := smallConfig(67, apps)
	// More workers than cores: stalled attempts wait out their RunTimeout
	// blocked, so overlapping them keeps the test fast.
	cfg.Workers = 4
	cfg.ContinueOnError = true
	cfg.MaxAttempts = 2
	cfg.RetryBackoff = time.Second
	cfg.RunTimeout = 5 * time.Second
	cfg.FaultRate = 1
	exp, err := libspector.NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := exp.Run(); err != nil {
		t.Fatalf("transient-faulted experiment failed: %v", err)
	}
	if wall := time.Since(start); wall > 30*time.Second {
		t.Fatalf("backoff leaked into wall time: %s", wall)
	}
	res := exp.Result()
	acct := res.Accounting
	if acct.Retried == 0 || acct.Backoff == 0 {
		t.Fatalf("no retries recorded: %+v", acct)
	}
	if acct.Quarantined != 0 || acct.Failed != 0 || acct.NotRun != 0 {
		t.Fatalf("transient faults should all recover: %+v", acct)
	}
	if got, want := acct.Completed, clean.Result().Accounting.Completed; got != want {
		t.Fatalf("faulted fleet completed %d runs, clean %d", got, want)
	}
	a, b := clean.Dataset().ComputeTotals(), exp.Dataset().ComputeTotals()
	if a != b {
		t.Errorf("faulted totals differ from clean run:\n%+v\n%+v", a, b)
	}
}

// TestExperimentFaultConfigValidation: a bad fault rate is rejected before
// the fleet starts.
func TestExperimentFaultConfigValidation(t *testing.T) {
	cfg := smallConfig(71, 4)
	cfg.FaultRate = 1.5
	exp, err := libspector.NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Run(); err == nil {
		t.Fatal("fault rate 1.5 accepted")
	}
}
