// Benchmarks of the pipeline's host cost: §II-B3's wall-clock
// performance (instrumentation overhead, offline analysis per app), whole
// campaigns through the facade and bare dispatch, the analysis fold, and
// the journal, result-store and event-bus diagnostics. Every measured
// number of the paper's evaluation lives in EXPERIMENTS.md instead,
// rendered and pinned by TestReproductionRecord.
//
// Run with:
//
//	go test -run '^$' -bench . -benchmem .
package libspector_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"libspector"
	"libspector/internal/analysis"
	"libspector/internal/attribution"
	"libspector/internal/dex"
	"libspector/internal/dispatch"
	"libspector/internal/dispatch/dispatchtest"
	"libspector/internal/emulator"
	"libspector/internal/journal"
	"libspector/internal/libradar"
	"libspector/internal/nets"
	"libspector/internal/obs"
	"libspector/internal/resultstore"
	"libspector/internal/synth"
	"libspector/internal/vtclient"
	"libspector/internal/xposed"
)

// BenchmarkTableIDomainTokenization times Table I's categorization of a
// world's whole domain universe; the table itself is the record's T1
// block.
func BenchmarkTableIDomainTokenization(b *testing.B) {
	world := testWorld(b, 42, 2)
	oracle := vtclient.NewOracle(42, world.DomainTruth())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc, err := vtclient.NewService(oracle)
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range world.Domains {
			svc.Categorize(d.Name)
		}
	}
}

// ---------------------------------------------------------------------------
// E3 — §II-B3 performance: instrumentation overhead and offline analysis.

// BenchmarkInstrumentationOverhead times one run with and without the
// supervisor hook; the virtual time the hook adds is the record's E3
// block.
func BenchmarkInstrumentationOverhead(b *testing.B) {
	world := testWorld(b, 61, 2)
	for _, instrumented := range []bool{false, true} {
		name := "uninstrumented"
		if instrumented {
			name = "instrumented"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fresh, err := world.GenerateApp(0)
				if err != nil {
					b.Fatal(err)
				}
				opts := emulator.DefaultOptions(61)
				opts.Monkey.Events = 200
				opts.Instrumented = instrumented
				if _, err := emulator.Run(emulator.Installation{
					Program: fresh.Program, APKSHA256: fresh.SHA256,
				}, world.Resolver, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkOfflineAnalysisPerApp(b *testing.B) {
	// The paper: offline analysis takes <5 s per app. Measure a full
	// AnalyzeRun over a recorded capture.
	world := testWorld(b, 62, 2)
	app, err := world.GenerateApp(0)
	if err != nil {
		b.Fatal(err)
	}
	opts := emulator.DefaultOptions(62)
	opts.Monkey.Events = 1000
	arts, err := emulator.Run(emulator.Installation{Program: app.Program, APKSHA256: app.SHA256}, world.Resolver, opts)
	if err != nil {
		b.Fatal(err)
	}
	reports, err := xposed.DecodeReports(arts.RawReports)
	if err != nil {
		b.Fatal(err)
	}
	svc, err := vtclient.NewService(vtclient.NewOracle(62, world.DomainTruth()))
	if err != nil {
		b.Fatal(err)
	}
	attr := attribution.NewAttributor(svc)
	disasm := dex.DisassembleFile(app.Program.Dex)
	// MB/s counts the wire bytes the capture accounts, not its size: the
	// capture keeps only the headers of most TCP segments, and the work
	// scales with packets, so a capture size would move the figure ~10x
	// with no change in work.
	b.SetBytes(arts.NetStats.TCPWireBytes + arts.NetStats.UDPWireBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := attr.AnalyzeRun(attribution.RunInput{
			AppSHA:        app.SHA256,
			AppPackage:    app.APK.Manifest.Package,
			AppCategory:   app.APK.Manifest.Category,
			Capture:       bytes.NewReader(arts.CaptureBytes),
			Reports:       reports,
			Trace:         arts.Trace,
			Disassembly:   disasm,
			LocalAddr:     nets.DefaultLocalAddr,
			CollectorAddr: nets.DefaultCollectorAddr,
			CollectorPort: nets.DefaultCollectorPort,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Join.UnmatchedFlows != 0 {
			b.Fatal("join incomplete")
		}
	}
}

// ---------------------------------------------------------------------------
// Whole-pipeline throughput.

func BenchmarkFleetRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := synth.DefaultConfig()
		cfg.Seed = 65
		cfg.NumApps = 10
		world, err := synth.NewWorld(cfg)
		if err != nil {
			b.Fatal(err)
		}
		svc, err := vtclient.NewService(vtclient.NewOracle(65, world.DomainTruth()))
		if err != nil {
			b.Fatal(err)
		}
		opts := emulator.DefaultOptions(65)
		opts.Monkey.Events = 200
		res, _, err := dispatchtest.Run(world, world.Resolver, dispatch.Config{
			Emulator:   opts,
			BaseSeed:   65,
			Attributor: attribution.NewAttributor(svc),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Accounting.Completed == 0 {
			b.Fatal("no runs")
		}
	}
}

// BenchmarkFleetThroughput measures the full campaign pipeline through
// the public facade — corpus generation, fleet dispatch over the real
// UDP collector and apk store, and streaming aggregation — with
// telemetry enabled, i.e. the exact per-shard configuration a sharded
// campaign runs. BenchmarkFleetRun above stays the bare-dispatch
// contrast: no facade, no telemetry.
func BenchmarkFleetThroughput(b *testing.B) {
	const apps = 12
	for i := 0; i < b.N; i++ {
		cfg := libspector.DefaultConfig()
		cfg.Seed = 67
		cfg.Apps = apps
		cfg.Workers = 4
		cfg.MonkeyEvents = 120
		cfg.Telemetry = obs.NewVirtual(nil)
		exp, err := libspector.NewExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := exp.Run(); err != nil {
			b.Fatal(err)
		}
		if exp.Result().Accounting.Completed == 0 {
			b.Fatal("no completed runs")
		}
	}
	b.ReportMetric(float64(apps), "apps/op")
}

// benchFleet is a corpus of apps apps under seed, with its domain service
// and a LibRadar detector that knows its libraries, and the config of a
// fleet that runs it at 120 monkey events per app.
func benchFleet(b *testing.B, seed uint64, apps int) (*synth.World, *vtclient.Service, *libradar.Detector, dispatch.Config) {
	b.Helper()
	cfg := synth.DefaultConfig()
	cfg.Seed, cfg.NumApps = seed, apps
	world, err := synth.NewWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	svc, err := vtclient.NewService(vtclient.NewOracle(seed, world.DomainTruth()))
	if err != nil {
		b.Fatal(err)
	}
	det := libradar.SeededDetector()
	for prefix, cat := range world.KnownLibraryDB() {
		if err := det.AddKnownLibrary(prefix, cat); err != nil {
			b.Fatal(err)
		}
	}
	opts := emulator.DefaultOptions(seed)
	opts.Monkey.Events = 120
	return world, svc, det, dispatch.Config{Emulator: opts, BaseSeed: seed, Detector: det, Attributor: attribution.NewAttributor(svc)}
}

// BenchmarkStreamingPipelinePeakMemory contrasts the retained heap of
// folding after the fleet and folding during it, on a 500-app corpus: the
// batch path materializes every RunResult before folding them (O(corpus)),
// while the streaming path folds each RunEvent into an Accumulator as it
// completes and lets the per-run state be collected (O(aggregates)).
func BenchmarkStreamingPipelinePeakMemory(b *testing.B) {
	const apps = 500
	// retained runs fn once and returns the heap bytes still live afterwards
	// while fn's result is pinned — the corpus-proportional residue each
	// path keeps around.
	retained := func(fn func() interface{}) float64 {
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		keep := fn()
		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(keep)
		return float64(after.HeapAlloc) - float64(before.HeapAlloc)
	}

	b.Run("batch", func(b *testing.B) {
		var bytesRetained float64
		for i := 0; i < b.N; i++ {
			world, svc, det, cfg := benchFleet(b, 77, apps)
			bytesRetained = retained(func() interface{} {
				res, runs, err := dispatchtest.Run(world, world.Resolver, cfg)
				if err != nil {
					b.Fatal(err)
				}
				det.Finalize(2)
				return []interface{}{res, runs, foldRuns(b, runs, det, svc)}
			})
		}
		b.ReportMetric(bytesRetained/1e6, "retained-MB")
	})
	b.Run("streaming", func(b *testing.B) {
		var bytesRetained float64
		for i := 0; i < b.N; i++ {
			world, svc, det, cfg := benchFleet(b, 77, apps)
			bytesRetained = retained(func() interface{} {
				acc, err := analysis.NewAccumulator(svc)
				if err != nil {
					b.Fatal(err)
				}
				events, err := dispatch.Stream(context.Background(), world, world.Resolver, cfg)
				if err != nil {
					b.Fatal(err)
				}
				// Fold events directly — nothing keeps a RunResult, so each
				// is unreachable as soon as the accumulator has folded it.
				for ev := range events {
					if ev.Kind != dispatch.EventRun {
						continue
					}
					if err := acc.Observe(ev.AppIndex, ev.Run); err != nil {
						b.Fatal(err)
					}
				}
				det.Finalize(2)
				ag, err := acc.Finish(det)
				if err != nil {
					b.Fatal(err)
				}
				return ag
			})
		}
		b.ReportMetric(bytesRetained/1e6, "retained-MB")
	})
}

// BenchmarkAnalysisThroughput measures the attribution→analysis hot path
// in isolation on a 500-app corpus: folding every completed run into the
// figure aggregates and rendering the full summary. The fleet runs once in
// setup; each iteration re-analyzes the same runs, so ns/op and allocs/op
// describe exactly the per-corpus analysis cost (divide by 500 for the
// per-app numbers; apps/sec is reported directly).
func BenchmarkAnalysisThroughput(b *testing.B) {
	const apps = 500
	world, svc, det, cfg := benchFleet(b, synth.DefaultConfig().Seed, apps)
	_, runs, err := dispatchtest.Run(world, world.Resolver, cfg)
	if err != nil {
		b.Fatal(err)
	}
	det.Finalize(2)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if foldRuns(b, runs, det, svc).Summarize(25).Totals.Flows == 0 {
			b.Fatal("no flows analyzed")
		}
	}
	b.ReportMetric(float64(len(runs))*float64(b.N)/b.Elapsed().Seconds(), "apps/sec")
}

// foldRuns folds runs through an Accumulator, app index = slice position,
// and finishes it.
func foldRuns(b *testing.B, runs []*attribution.RunResult, det *libradar.Detector, svc analysis.DomainCategorizer) *analysis.Aggregates {
	acc, err := analysis.NewAccumulator(svc)
	if err != nil {
		b.Fatal(err)
	}
	for j, run := range runs {
		if err := acc.Observe(j, run); err != nil {
			b.Fatal(err)
		}
	}
	ag, err := acc.Finish(det)
	if err != nil {
		b.Fatal(err)
	}
	return ag
}

// BenchmarkJournalAppend measures the campaign WAL's append path under the
// default fsync batch: one run-started plus one run-completed record per
// op, the exact write load one fleet run generates. ns/op here bounds the
// journal's drag on fleet throughput.
func BenchmarkJournalAppend(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.wal")
	w, err := journal.Create(path, journal.Header{Seed: 1, Fingerprint: "bench", Apps: b.N}, journal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = w.Close() }()
	const sha = "a94a8fe5ccb19ba61c4c0873d391e987982fbbd3a94a8fe5ccb19ba61c4c0873"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.RunStarted(i); err != nil {
			b.Fatal(err)
		}
		if err := w.RunCompleted(i, journal.OutcomeRun, sha, 1, 0, 0, ""); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Result store: point lookup vs full scan on a 500-app campaign store.

var (
	storeBenchOnce sync.Once
	storeBench     *resultstore.Store
	storeBenchSHA  string
	storeBenchErr  error
)

// storeFixture lazily runs one 500-app campaign with a result store and
// opens the written store from disk — the exact artifact an analyst
// queries offline.
func storeFixture(b *testing.B) (*resultstore.Store, string) {
	b.Helper()
	storeBenchOnce.Do(func() {
		dir, err := os.MkdirTemp("", "libspector-store-bench-*")
		if err != nil {
			storeBenchErr = err
			return
		}
		path := filepath.Join(dir, "campaign.store")
		cfg := libspector.DefaultConfig()
		cfg.Apps = 500
		cfg.Seed = 42
		cfg.MonkeyEvents = 120
		cfg.ResultStore = path
		exp, err := libspector.NewExperiment(cfg)
		if err == nil {
			err = exp.Run()
		}
		if err != nil {
			storeBenchErr = err
			return
		}
		st, err := resultstore.Open(path)
		if err != nil {
			storeBenchErr = err
			return
		}
		// Query key: an app sha from the middle of the corpus, read back
		// from the store itself so the lookup provably has matches.
		mid := st.Blocks() / 2
		res, err := st.Query(resultstore.Query{GroupBy: resultstore.GroupApp})
		if err != nil || len(res.Groups) == 0 {
			storeBenchErr = fmt.Errorf("store fixture grouping failed: %v", err)
			return
		}
		storeBench, storeBenchSHA = st, res.Groups[min(mid, len(res.Groups)-1)].Key
	})
	if storeBenchErr != nil {
		b.Fatal(storeBenchErr)
	}
	return storeBench, storeBenchSHA
}

// BenchmarkStorePointLookup measures a by-app point query: the sorted
// block index plus bloom filters should prune the decode to a handful of
// blocks, which is the whole reason the store exists next to the
// in-memory fold.
func BenchmarkStorePointLookup(b *testing.B) {
	st, sha := storeFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	var scanned, flows int64
	for i := 0; i < b.N; i++ {
		res, err := st.Query(resultstore.Query{AppSHA: sha})
		if err != nil {
			b.Fatal(err)
		}
		scanned, flows = int64(res.BlocksScanned), res.Rollup.Flows
	}
	b.ReportMetric(float64(scanned), "blocks-scanned")
	b.ReportMetric(float64(flows), "flows-matched")
	b.ReportMetric(float64(st.Blocks()), "blocks-total")
}

// BenchmarkStoreScan measures the unfiltered rollup over the same store:
// every block decoded. The PointLookup/Scan ratio is the index's pruning
// factor.
func BenchmarkStoreScan(b *testing.B) {
	st, _ := storeFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	var flows int64
	for i := 0; i < b.N; i++ {
		res, err := st.Query(resultstore.Query{})
		if err != nil {
			b.Fatal(err)
		}
		flows = res.Rollup.Flows
	}
	b.ReportMetric(float64(flows), "flows")
	b.ReportMetric(float64(st.Blocks()), "blocks-total")
}

// ---------------------------------------------------------------------------
// Event plane

// BenchmarkBusPublish measures the event bus in its three regimes. The
// "inactive" case is the tax every instrumented hot path pays when no
// ops server or event log is attached (the Active gate — one atomic
// load, no event construction in real call sites). "subscriber" is the
// normal live-dashboard fan-out into a ring with headroom. "stalled" is
// the worst case: a full ring forcing the drop-oldest path, including
// the registry drop counter, on every publish — the cost a publisher
// pays for a wedged SSE client.
func BenchmarkBusPublish(b *testing.B) {
	ev := obs.Event{Type: obs.EvRunCompleted, App: 1, Shard: -1, Flows: 3}
	b.Run("inactive", func(b *testing.B) {
		bus := obs.NewBus(obs.NewRegistry())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if bus.Active() {
				bus.Publish(ev)
			}
		}
	})
	b.Run("subscriber", func(b *testing.B) {
		bus := obs.NewBus(obs.NewRegistry())
		sub := bus.Subscribe(obs.SubOptions{Capacity: b.N + 1})
		defer sub.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bus.Publish(ev)
		}
	})
	b.Run("stalled", func(b *testing.B) {
		bus := obs.NewBus(obs.NewRegistry())
		sub := bus.Subscribe(obs.SubOptions{Capacity: 64})
		defer sub.Close()
		for i := 0; i < 64; i++ {
			bus.Publish(ev) // pre-fill the ring so every timed publish drops
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bus.Publish(ev)
		}
		b.StopTimer()
		if sub.Dropped() < int64(b.N) {
			b.Fatalf("expected every timed publish to drop, got %d/%d", sub.Dropped(), b.N)
		}
	})
}
