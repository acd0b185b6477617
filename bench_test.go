// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index) plus the §II-B3
// performance numbers and the DESIGN.md ablations.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Each figure bench reports the headline quantity of that figure as a
// custom metric, so the bench output doubles as the reproduction record.
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
	"libspector/internal/analysis/analysistest"
	"libspector/internal/art"
	"libspector/internal/attribution"
	"libspector/internal/baseline"
	"libspector/internal/corpus"
	"libspector/internal/dex"
	"libspector/internal/dispatch"
	"libspector/internal/emulator"
	"libspector/internal/journal"
	"libspector/internal/libradar"
	"libspector/internal/monkey"
	"libspector/internal/nets"
	"libspector/internal/obs"
	"libspector/internal/resultstore"
	"libspector/internal/synth"
	"libspector/internal/vtclient"
	"libspector/internal/xposed"
)

// benchState is the shared experiment all figure benches aggregate over.
type benchState struct {
	exp *libspector.Experiment
	ds  *analysis.Dataset
}

var (
	benchOnce sync.Once
	bench     benchState
	benchErr  error
)

// sharedExperiment lazily runs one mid-sized fleet.
func sharedExperiment(b *testing.B) *benchState {
	b.Helper()
	benchOnce.Do(func() {
		cfg := libspector.DefaultConfig()
		cfg.Apps = 100
		cfg.Seed = 42
		cfg.MonkeyEvents = 400
		exp, err := libspector.NewExperiment(cfg)
		if err != nil {
			benchErr = err
			return
		}
		if err := exp.Run(); err != nil {
			benchErr = err
			return
		}
		bench = benchState{exp: exp, ds: exp.Dataset()}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return &bench
}

// ---------------------------------------------------------------------------
// T1 — Table I: domain-category tokenization.

func BenchmarkTableIDomainTokenization(b *testing.B) {
	st := sharedExperiment(b)
	world := st.exp.World()
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
		if i == 0 {
			counts := svc.Counts()
			b.ReportMetric(float64(counts[corpus.DomUnknown]), "unknown-domains")
			b.ReportMetric(float64(len(world.Domains)), "domains")
		}
	}
}

// ---------------------------------------------------------------------------
// F2 — Figure 2: per-app-category transfer by library category.

func BenchmarkFig2CategoryTransfer(b *testing.B) {
	st := sharedExperiment(b)
	b.ResetTimer()
	var m *analysis.CategoryMatrix
	for i := 0; i < b.N; i++ {
		m = st.ds.Fig2CategoryTransfer()
	}
	b.ReportMetric(100*m.LegendShare[corpus.LibAdvertisement], "ads-share-%")
	b.ReportMetric(100*m.LegendShare[corpus.LibDevelopmentAid], "devaid-share-%")
	b.ReportMetric(100*m.LegendShare[corpus.LibUnknown], "unknown-share-%")
	b.ReportMetric(100*m.LegendShare[corpus.LibGameEngine], "gameengine-share-%")
}

// ---------------------------------------------------------------------------
// F3 — Figure 3: top origin-libraries and 2-level libraries.

func BenchmarkFig3TopLibraries(b *testing.B) {
	st := sharedExperiment(b)
	b.ResetTimer()
	var origins, twoLevel []analysis.RankedLibrary
	for i := 0; i < b.N; i++ {
		origins = st.ds.Fig3TopOrigins(15)
		twoLevel = st.ds.Fig3TopTwoLevel(15)
	}
	if len(origins) > 0 {
		b.ReportMetric(float64(origins[0].Bytes)/1e6, "top-origin-MB")
	}
	if len(twoLevel) > 0 {
		b.ReportMetric(float64(twoLevel[0].Bytes)/1e6, "top-2level-MB")
	}
	b.ReportMetric(100*st.ds.TopShare(25, true), "top25-2level-share-%")
}

// ---------------------------------------------------------------------------
// F4 — Figure 4: CDFs of flow sizes.

func BenchmarkFig4CDF(b *testing.B) {
	st := sharedExperiment(b)
	b.ResetTimer()
	var series []analysis.CDFSeries
	for i := 0; i < b.N; i++ {
		series = st.ds.Fig4CDF()
	}
	for _, s := range series {
		if s.Label == "App: Received" && len(s.Values) > 0 {
			b.ReportMetric(s.Values[len(s.Values)/2]/1e6, "median-app-recv-MB")
		}
	}
}

// ---------------------------------------------------------------------------
// F5 — Figure 5: transfer-flow ratios.

func BenchmarkFig5FlowRatios(b *testing.B) {
	st := sharedExperiment(b)
	b.ResetTimer()
	var ratios []analysis.RatioSeries
	for i := 0; i < b.N; i++ {
		ratios = st.ds.Fig5FlowRatios()
	}
	b.ReportMetric(ratios[0].Mean, "app-ratio-mean")
	b.ReportMetric(ratios[1].Mean, "lib-ratio-mean")
	b.ReportMetric(ratios[2].Mean, "domain-ratio-mean")
	b.ReportMetric(analysis.TopDecileRatioMean(ratios[1]), "lib-top10%-ratio")
}

// ---------------------------------------------------------------------------
// F6 — Figure 6: AnT and common-library prevalence.

func BenchmarkFig6AnTRatio(b *testing.B) {
	st := sharedExperiment(b)
	b.ResetTimer()
	var ant *analysis.AnTStats
	for i := 0; i < b.N; i++ {
		ant = st.ds.Fig6AnTShares()
	}
	b.ReportMetric(100*ant.FracAnTOnly, "ant-only-%")
	b.ReportMetric(100*ant.FracSomeAnT, "some-ant-%")
	b.ReportMetric(ant.AnTFlowRatioMean, "ant-flow-ratio")
	b.ReportMetric(ant.CLFlowRatioMean, "cl-flow-ratio")
}

// ---------------------------------------------------------------------------
// F7 — Figure 7: average transfer per library / domain category.

func BenchmarkFig7AverageTransfer(b *testing.B) {
	st := sharedExperiment(b)
	b.ResetTimer()
	var avgs *analysis.CategoryAverages
	for i := 0; i < b.N; i++ {
		avgs = st.ds.Fig7Averages()
	}
	cdn := avgs.PerDomain[corpus.DomCDN]
	ads := avgs.PerDomain[corpus.DomAdvertisements]
	b.ReportMetric(cdn/1e6, "cdn-per-domain-MB")
	b.ReportMetric(ads/1e6, "ads-per-domain-MB")
	if ads > 0 {
		b.ReportMetric(cdn/ads, "cdn-over-ads")
	}
}

// ---------------------------------------------------------------------------
// F8 — Figure 8: average transfer per app category.

func BenchmarkFig8AppCategoryAverage(b *testing.B) {
	st := sharedExperiment(b)
	b.ResetTimer()
	var avgs map[corpus.AppCategory]float64
	for i := 0; i < b.N; i++ {
		avgs = st.ds.Fig8AppCategoryAverages()
	}
	var maxCat corpus.AppCategory
	var maxAvg float64
	for cat, v := range avgs {
		if v > maxAvg {
			maxCat, maxAvg = cat, v
		}
	}
	_ = maxCat
	b.ReportMetric(maxAvg/1e6, "top-appcat-avg-MB")
}

// ---------------------------------------------------------------------------
// F9 — Figure 9: library × domain category heatmap.

func BenchmarkFig9Heatmap(b *testing.B) {
	st := sharedExperiment(b)
	b.ResetTimer()
	var h *analysis.Heatmap
	for i := 0; i < b.N; i++ {
		h = st.ds.Fig9Heatmap()
	}
	b.ReportMetric(100*h.ShareToDomain(corpus.LibAdvertisement, corpus.DomCDN), "ads-to-cdn-%")
	b.ReportMetric(100*h.ShareToDomain(corpus.LibAdvertisement, corpus.DomAdvertisements), "ads-to-ads-%")
}

// ---------------------------------------------------------------------------
// F10 — Figure 10: method coverage.

func BenchmarkFig10Coverage(b *testing.B) {
	st := sharedExperiment(b)
	b.ResetTimer()
	var cov *analysis.CoverageStats
	for i := 0; i < b.N; i++ {
		cov = st.ds.Fig10Coverage()
	}
	b.ReportMetric(cov.Mean, "coverage-mean-%")
	b.ReportMetric(100*cov.FracAboveMean, "apps-above-mean-%")
	b.ReportMetric(cov.MeanMethods, "mean-methods")
}

// ---------------------------------------------------------------------------
// E1/E2 — §IV-D cost and energy estimation.

func BenchmarkCostEstimation(b *testing.B) {
	st := sharedExperiment(b)
	model := analysis.NewCostModel()
	var costs []analysis.CategoryCost
	for i := 0; i < b.N; i++ {
		costs = analysis.CostPerCategory(st.ds.Fig7Averages(), model,
			corpus.LibAdvertisement, corpus.LibMobileAnalytics, corpus.LibGameEngine)
	}
	b.ReportMetric(costs[0].DollarsPerHour, "ads-$/h")
	// The paper's own inputs through the same model (unit-verified):
	b.ReportMetric(model.DollarsPerHour(15.58e6), "paper-ads-$/h")
}

func BenchmarkEnergyEstimation(b *testing.B) {
	st := sharedExperiment(b)
	model := analysis.NewEnergyModel()
	adBytes := st.ds.Fig7Averages().PerLibrary[corpus.LibAdvertisement]
	var joules float64
	for i := 0; i < b.N; i++ {
		joules = model.EnergyJoules(adBytes)
	}
	b.ReportMetric(joules, "measured-J")
	// The paper's arithmetic: 15.6 MB at the rounded constant ≈ 7794 J ≈
	// 18.7% battery.
	paperJ := 15.6e6 * analysis.PaperJoulesPerByte
	b.ReportMetric(100*model.BatteryShare(paperJ), "paper-battery-%")
}

// ---------------------------------------------------------------------------
// E3 — §II-B3 performance: instrumentation overhead and offline analysis.

// benchApp generates a single app for run benchmarks.
func benchApp(b *testing.B, seed uint64) (*synth.App, *synth.World) {
	b.Helper()
	cfg := synth.DefaultConfig()
	cfg.Seed = seed
	cfg.NumApps = 2
	cfg.ARMOnlyRate = 0
	world, err := synth.NewWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	app, err := world.GenerateApp(0)
	if err != nil {
		b.Fatal(err)
	}
	return app, world
}

func BenchmarkInstrumentationOverhead(b *testing.B) {
	app, world := benchApp(b, 61)
	for _, instrumented := range []bool{false, true} {
		name := "uninstrumented"
		if instrumented {
			name = "instrumented"
		}
		b.Run(name, func(b *testing.B) {
			var virtualNs float64
			for i := 0; i < b.N; i++ {
				fresh, err := world.GenerateApp(0)
				if err != nil {
					b.Fatal(err)
				}
				opts := emulator.DefaultOptions(61)
				opts.Monkey.Events = 200
				opts.Instrumented = instrumented
				arts, err := emulator.Run(emulator.Installation{
					Program: fresh.Program, APKSHA256: fresh.SHA256,
				}, world.Resolver, opts)
				if err != nil {
					b.Fatal(err)
				}
				virtualNs = float64(arts.VirtualDuration.Nanoseconds())
			}
			b.ReportMetric(virtualNs/1e6, "virtual-ms")
			_ = app
		})
	}
}

func BenchmarkOfflineAnalysisPerApp(b *testing.B) {
	// The paper: offline analysis takes <5 s per app. Measure a full
	// AnalyzeRun over a recorded capture.
	app, world := benchApp(b, 62)
	opts := emulator.DefaultOptions(62)
	opts.Monkey.Events = 1000
	arts, err := emulator.Run(emulator.Installation{Program: app.Program, APKSHA256: app.SHA256}, world.Resolver, opts)
	if err != nil {
		b.Fatal(err)
	}
	svc, err := vtclient.NewService(vtclient.NewOracle(62, world.DomainTruth()))
	if err != nil {
		b.Fatal(err)
	}
	attr := attribution.NewAttributor(svc)
	disasm := dex.DisassembleFile(app.Program.Dex)
	b.SetBytes(int64(len(arts.CaptureBytes)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := attr.AnalyzeRun(attribution.RunInput{
			AppSHA:        app.SHA256,
			AppPackage:    app.APK.Manifest.Package,
			AppCategory:   app.APK.Manifest.Category,
			Capture:       bytes.NewReader(arts.CaptureBytes),
			Reports:       arts.Reports,
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
// E4 — network-only baselines vs context-aware attribution.

func BenchmarkBaselineComparison(b *testing.B) {
	st := sharedExperiment(b)
	b.ResetTimer()
	var ua, host, content baseline.Comparison
	for i := 0; i < b.N; i++ {
		ua = baseline.CompareUA(st.ds)
		host = baseline.CompareHostname(st.ds)
		content = baseline.CompareContentType(st.ds)
	}
	b.ReportMetric(100*ua.Recall(), "ua-recall-%")
	b.ReportMetric(100*host.Recall(), "host-recall-%")
	b.ReportMetric(100*content.Recall(), "content-recall-%")
	b.ReportMetric(100*ua.CDNShare(), "knownlib-cdn-share-%")
}

// ---------------------------------------------------------------------------
// E5 — §IV-C event-budget study (10 … 5,000 events).

func BenchmarkEventBudgetSweep(b *testing.B) {
	cfg := synth.DefaultConfig()
	cfg.Seed = 63
	cfg.NumApps = 8
	cfg.ARMOnlyRate = 0
	world, err := synth.NewWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, events := range []int{10, 100, 500, 1000, 5000} {
		b.Run(fmt.Sprintf("events=%d", events), func(b *testing.B) {
			var covSum, methodsSum float64
			for i := 0; i < b.N; i++ {
				covSum, methodsSum = 0, 0
				for a := 0; a < cfg.NumApps; a++ {
					app, err := world.GenerateApp(a)
					if err != nil {
						b.Fatal(err)
					}
					opts := emulator.DefaultOptions(63)
					opts.Monkey.Events = events
					arts, err := emulator.Run(emulator.Installation{
						Program: app.Program, APKSHA256: app.SHA256,
					}, world.Resolver, opts)
					if err != nil {
						b.Fatal(err)
					}
					cov := attribution.ComputeCoverage(arts.Trace, dex.DisassembleFile(app.Program.Dex))
					covSum += cov.Percent()
					methodsSum += float64(cov.ExecutedMethods)
				}
			}
			b.ReportMetric(covSum/float64(cfg.NumApps), "coverage-%")
			b.ReportMetric(methodsSum/float64(cfg.NumApps), "methods-hit")
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §4.5).

// BenchmarkAblationBuiltinFilter compares origin attribution with and
// without the §III-C built-in frame filtering: without it, framework
// packages swallow the attribution.
func BenchmarkAblationBuiltinFilter(b *testing.B) {
	st := sharedExperiment(b)
	reports := collectReports(st)
	if len(reports) == 0 {
		b.Fatal("no reports")
	}
	for _, disable := range []bool{false, true} {
		name := "filtered"
		if disable {
			name = "unfiltered"
		}
		b.Run(name, func(b *testing.B) {
			attr := attribution.NewAttributor(nil)
			attr.DisableBuiltinFilter = disable
			var frameworkOrigins int
			filter := corpus.NewBuiltinFilter()
			for i := 0; i < b.N; i++ {
				frameworkOrigins = 0
				for _, rep := range reports {
					origin, builtin, err := attr.OriginOf(rep)
					if err != nil {
						b.Fatal(err)
					}
					if builtin || filter.IsBuiltin(origin+".X") {
						frameworkOrigins++
					}
				}
			}
			b.ReportMetric(100*float64(frameworkOrigins)/float64(len(reports)), "framework-attributed-%")
		})
	}
}

// BenchmarkAblationTopOfStack compares chronologically-first attribution
// (the paper's design) with naive top-of-stack attribution: the latter
// credits HTTP-client libraries instead of the business-logic library.
func BenchmarkAblationTopOfStack(b *testing.B) {
	st := sharedExperiment(b)
	reports := collectReports(st)
	first := attribution.NewAttributor(nil)
	top := attribution.NewAttributor(nil)
	top.TopOfStack = true
	var disagreements int
	for i := 0; i < b.N; i++ {
		disagreements = 0
		for _, rep := range reports {
			a, _, err := first.OriginOf(rep)
			if err != nil {
				b.Fatal(err)
			}
			c, _, err := top.OriginOf(rep)
			if err != nil {
				b.Fatal(err)
			}
			if a != c {
				disagreements++
			}
		}
	}
	b.ReportMetric(100*float64(disagreements)/float64(len(reports)), "disagreement-%")
}

// collectReports gathers all matched supervisor reports of the shared
// experiment.
func collectReports(st *benchState) []*xposed.Report {
	var out []*xposed.Report
	for _, run := range st.exp.Result().Runs {
		for _, f := range run.Flows {
			if f.Report != nil {
				out = append(out, f.Report)
			}
		}
	}
	return out
}

// BenchmarkAblationProfilerMode compares the stock bounded trace buffer
// with the paper's unique-method ART modification.
func BenchmarkAblationProfilerMode(b *testing.B) {
	_, world := benchApp(b, 64)
	for _, mode := range []art.ProfilerMode{art.ProfilerBounded, art.ProfilerUnique} {
		name := "bounded"
		if mode == art.ProfilerUnique {
			name = "unique"
		}
		b.Run(name, func(b *testing.B) {
			var uniqueMethods, dropped float64
			for i := 0; i < b.N; i++ {
				fresh, err := world.GenerateApp(0)
				if err != nil {
					b.Fatal(err)
				}
				opts := emulator.DefaultOptions(64)
				opts.Monkey.Events = 500
				opts.ProfilerMode = mode
				opts.ProfilerCapacity = 256
				arts, err := emulator.Run(emulator.Installation{
					Program: fresh.Program, APKSHA256: fresh.SHA256,
				}, world.Resolver, opts)
				if err != nil {
					b.Fatal(err)
				}
				uniqueMethods = float64(arts.ProfilerUniqueMethods)
				dropped = float64(arts.ProfilerDroppedEntries)
			}
			b.ReportMetric(uniqueMethods, "unique-methods")
			b.ReportMetric(dropped, "dropped-entries")
		})
	}
}

// BenchmarkAblationCategoryVoting compares the §III-D majority-voting
// category prediction with a database-only resolver that maps every
// unknown library to Unknown.
func BenchmarkAblationCategoryVoting(b *testing.B) {
	st := sharedExperiment(b)
	origins := make(map[string]struct{})
	for i := range st.ds.Records {
		r := &st.ds.Records[i]
		if !r.Builtin() {
			origins[st.ds.Origin(r)] = struct{}{}
		}
	}
	full := st.exp.Detector()
	exactOnly := libradar.NewDetector(nil) // empty DB: everything Unknown
	b.Run("with-voting", func(b *testing.B) {
		var unknown int
		for i := 0; i < b.N; i++ {
			unknown = 0
			for origin := range origins {
				if full.Categorize(origin) == corpus.LibUnknown {
					unknown++
				}
			}
		}
		b.ReportMetric(100*float64(unknown)/float64(len(origins)), "unknown-%")
	})
	b.Run("db-exact-only", func(b *testing.B) {
		var unknown int
		for i := 0; i < b.N; i++ {
			unknown = 0
			for origin := range origins {
				if exactOnly.Categorize(origin) == corpus.LibUnknown {
					unknown++
				}
			}
		}
		b.ReportMetric(100*float64(unknown)/float64(len(origins)), "unknown-%")
	})
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
		res, err := dispatch.RunAll(world, world.Resolver, dispatch.Config{
			Emulator:   opts,
			BaseSeed:   65,
			Attributor: attribution.NewAttributor(svc),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Runs) == 0 {
			b.Fatal("no runs")
		}
	}
}

// BenchmarkFleetThroughput measures the full campaign pipeline through
// the public facade — corpus generation, fleet dispatch over the real
// UDP collector and apk store, and streaming aggregation — with
// telemetry enabled, i.e. the exact per-shard configuration a sharded
// campaign runs. BenchmarkFleetRun above stays the bare-dispatch
// contrast: no facade, no collector, no telemetry.
func BenchmarkFleetThroughput(b *testing.B) {
	const apps = 12
	for i := 0; i < b.N; i++ {
		cfg := libspector.DefaultConfig()
		cfg.Seed = 67
		cfg.Apps = apps
		cfg.Workers = 4
		cfg.MonkeyEvents = 120
		cfg.UseCollector = true
		cfg.UseStore = true
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

// BenchmarkStreamingPipelinePeakMemory contrasts the retained heap of the
// two analysis paths on a 500-app corpus: the batch path materializes every
// RunResult before building the Dataset (O(corpus)), while the streaming
// path folds each RunEvent into an Accumulator as it completes and lets the
// per-run state be collected (O(aggregates)).
func BenchmarkStreamingPipelinePeakMemory(b *testing.B) {
	const apps = 500
	setup := func(b *testing.B) (*synth.World, *vtclient.Service, *libradar.Detector, dispatch.Config) {
		b.Helper()
		cfg := synth.DefaultConfig()
		cfg.Seed = 77
		cfg.NumApps = apps
		world, err := synth.NewWorld(cfg)
		if err != nil {
			b.Fatal(err)
		}
		svc, err := vtclient.NewService(vtclient.NewOracle(77, world.DomainTruth()))
		if err != nil {
			b.Fatal(err)
		}
		det := libradar.SeededDetector()
		for prefix, cat := range world.KnownLibraryDB() {
			if err := det.AddKnownLibrary(prefix, cat); err != nil {
				b.Fatal(err)
			}
		}
		opts := emulator.DefaultOptions(77)
		opts.Monkey.Events = 120
		return world, svc, det, dispatch.Config{
			Emulator:   opts,
			BaseSeed:   77,
			Detector:   det,
			Attributor: attribution.NewAttributor(svc),
		}
	}
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
			world, svc, det, cfg := setup(b)
			bytesRetained = retained(func() interface{} {
				res, err := dispatch.RunAll(world, world.Resolver, cfg)
				if err != nil {
					b.Fatal(err)
				}
				det.Finalize(2)
				ds, err := analysistest.BuildDataset(res.Runs, det, svc)
				if err != nil {
					b.Fatal(err)
				}
				return []interface{}{res, ds}
			})
		}
		b.ReportMetric(bytesRetained/1e6, "retained-MB")
	})
	b.Run("streaming", func(b *testing.B) {
		var bytesRetained float64
		for i := 0; i < b.N; i++ {
			world, svc, det, cfg := setup(b)
			bytesRetained = retained(func() interface{} {
				acc, err := analysis.NewAccumulator(svc)
				if err != nil {
					b.Fatal(err)
				}
				events, err := dispatch.Stream(context.Background(), world, world.Resolver, cfg)
				if err != nil {
					b.Fatal(err)
				}
				// Fold events directly — no Gather, so each RunResult is
				// unreachable as soon as the accumulator has folded it.
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
	cfg := synth.DefaultConfig()
	cfg.NumApps = apps
	world, err := synth.NewWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	svc, err := vtclient.NewService(vtclient.NewOracle(cfg.Seed, world.DomainTruth()))
	if err != nil {
		b.Fatal(err)
	}
	det := libradar.SeededDetector()
	for prefix, cat := range world.KnownLibraryDB() {
		if err := det.AddKnownLibrary(prefix, cat); err != nil {
			b.Fatal(err)
		}
	}
	opts := emulator.DefaultOptions(cfg.Seed)
	opts.Monkey.Events = 120
	res, err := dispatch.RunAll(world, world.Resolver, dispatch.Config{
		Emulator:   opts,
		BaseSeed:   cfg.Seed,
		Detector:   det,
		Attributor: attribution.NewAttributor(svc),
	})
	if err != nil {
		b.Fatal(err)
	}
	det.Finalize(2)
	runs := res.Runs

	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ds, err := analysistest.BuildDataset(runs, det, svc)
			if err != nil {
				b.Fatal(err)
			}
			if ds.Summarize(25).Totals.Flows == 0 {
				b.Fatal("no flows analyzed")
			}
		}
		b.ReportMetric(float64(len(runs))*float64(b.N)/b.Elapsed().Seconds(), "apps/sec")
	})
	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
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
			if ag.Summarize(25).Totals.Flows == 0 {
				b.Fatal("no flows analyzed")
			}
		}
		b.ReportMetric(float64(len(runs))*float64(b.N)/b.Elapsed().Seconds(), "apps/sec")
	})
}

// BenchmarkMonkeySeedVariance quantifies the §IV-C caveat that monkey
// randomness makes measured coverage a lower bound: the same app exercised
// under different monkey seeds yields varying coverage.
func BenchmarkMonkeySeedVariance(b *testing.B) {
	_, world := benchApp(b, 66)
	var mean, min, max float64
	for i := 0; i < b.N; i++ {
		covs := make([]float64, 0, 8)
		for seed := uint64(0); seed < 8; seed++ {
			fresh, err := world.GenerateApp(0)
			if err != nil {
				b.Fatal(err)
			}
			opts := emulator.DefaultOptions(1000 + seed)
			// A tight budget: with hundreds of events every handler fires
			// regardless of seed and the variance collapses.
			opts.Monkey.Events = 12
			arts, err := emulator.Run(emulator.Installation{
				Program: fresh.Program, APKSHA256: fresh.SHA256,
			}, world.Resolver, opts)
			if err != nil {
				b.Fatal(err)
			}
			cov := attribution.ComputeCoverage(arts.Trace, dex.DisassembleFile(fresh.Program.Dex))
			covs = append(covs, cov.Percent())
		}
		min, max, mean = covs[0], covs[0], 0
		for _, c := range covs {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
			mean += c
		}
		mean /= float64(len(covs))
	}
	b.ReportMetric(mean, "coverage-mean-%")
	b.ReportMetric(min, "coverage-min-%")
	b.ReportMetric(max, "coverage-max-%")
}

// BenchmarkAblationInputGenerator compares monkey's random events with a
// systematic (activity, handler) sweep at small event budgets — the
// coverage-improvement direction of PUMA/Dynodroid the paper cites.
func BenchmarkAblationInputGenerator(b *testing.B) {
	cfg := synth.DefaultConfig()
	cfg.Seed = 67
	cfg.NumApps = 8
	cfg.ARMOnlyRate = 0
	world, err := synth.NewWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []monkey.Strategy{monkey.StrategyRandom, monkey.StrategySystematic} {
		name := "random"
		if strat == monkey.StrategySystematic {
			name = "systematic"
		}
		b.Run(name, func(b *testing.B) {
			var covSum float64
			for i := 0; i < b.N; i++ {
				covSum = 0
				for a := 0; a < cfg.NumApps; a++ {
					app, err := world.GenerateApp(a)
					if err != nil {
						b.Fatal(err)
					}
					opts := emulator.DefaultOptions(67)
					opts.Monkey.Events = 40
					opts.Monkey.Strategy = strat
					arts, err := emulator.Run(emulator.Installation{
						Program: app.Program, APKSHA256: app.SHA256,
					}, world.Resolver, opts)
					if err != nil {
						b.Fatal(err)
					}
					cov := attribution.ComputeCoverage(arts.Trace, dex.DisassembleFile(app.Program.Dex))
					covSum += cov.Percent()
				}
			}
			b.ReportMetric(covSum/float64(cfg.NumApps), "coverage-%")
		})
	}
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
