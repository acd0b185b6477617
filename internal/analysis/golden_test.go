package analysis_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"libspector/internal/analysis"
	"libspector/internal/analysis/analysistest"
	"libspector/internal/attribution"
	"libspector/internal/baseline"
	"libspector/internal/corpus"
	"libspector/internal/dispatch"
	"libspector/internal/emulator"
	"libspector/internal/libradar"
	"libspector/internal/report"
	"libspector/internal/synth"
	"libspector/internal/vtclient"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden figure files")

// goldenFixture runs one small fleet on the default seed and returns both
// analysis paths over it: the batch Dataset and the streaming Aggregates.
func goldenFixture(t *testing.T) (*analysis.Dataset, *analysis.Aggregates) {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.NumApps = 24 // default seed (42), corpus scaled for test time
	world, err := synth.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	detector := libradar.SeededDetector()
	for prefix, cat := range world.KnownLibraryDB() {
		if err := detector.AddKnownLibrary(prefix, cat); err != nil {
			t.Fatal(err)
		}
	}
	domains, err := vtclient.NewService(vtclient.NewOracle(cfg.Seed, world.DomainTruth()))
	if err != nil {
		t.Fatal(err)
	}
	opts := emulator.DefaultOptions(cfg.Seed)
	opts.Monkey.Events = 150

	acc, err := analysis.NewAccumulator(domains)
	if err != nil {
		t.Fatal(err)
	}
	events, err := dispatch.Stream(context.Background(), world, world.Resolver, dispatch.Config{
		Workers:    4,
		Emulator:   opts,
		BaseSeed:   cfg.Seed,
		Detector:   detector,
		Attributor: attribution.NewAttributor(domains),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dispatch.Gather(events, acc)
	if err != nil {
		t.Fatal(err)
	}
	detector.Finalize(2)
	ds, err := analysistest.BuildDataset(res.Runs, detector, domains)
	if err != nil {
		t.Fatal(err)
	}
	ag, err := acc.Finish(detector)
	if err != nil {
		t.Fatal(err)
	}
	return ds, ag
}

// renderAll produces every rendered figure/table keyed by golden-file stem.
// The figureAPI constraint keeps the batch and streaming render sets
// identical, so one golden pins both paths.
type figureAPI interface {
	ComputeTotals() analysis.Totals
	Fig2CategoryTransfer() *analysis.CategoryMatrix
	Fig3TopOrigins(n int) []analysis.RankedLibrary
	Fig3TopTwoLevel(n int) []analysis.RankedLibrary
	Fig4CDF() []analysis.CDFSeries
	Fig5FlowRatios() []analysis.RatioSeries
	Fig6AnTShares() *analysis.AnTStats
	Fig7Averages() *analysis.CategoryAverages
	Fig8AppCategoryAverages() map[corpus.AppCategory]float64
	Fig9Heatmap() *analysis.Heatmap
	Fig10Coverage() *analysis.CoverageStats
	CompareWithPaper() []analysis.TargetComparison
	Summarize(topN int) *analysis.Summary
}

func renderAll(t *testing.T, src figureAPI) map[string]string {
	t.Helper()
	avgs := src.Fig7Averages()
	costs := analysis.CostPerCategory(avgs, analysis.NewCostModel(),
		corpus.LibAdvertisement, corpus.LibMobileAnalytics,
		corpus.LibSocialNetwork, corpus.LibDigitalIdentity, corpus.LibGameEngine)
	var json bytes.Buffer
	if err := src.Summarize(25).WriteJSON(&json); err != nil {
		t.Fatal(err)
	}
	return map[string]string{
		"totals":           report.Totals(src.ComputeTotals()),
		"fig2":             report.Fig2(src.Fig2CategoryTransfer()),
		"fig3":             report.Fig3(src.Fig3TopOrigins(25), src.Fig3TopTwoLevel(25)),
		"fig4":             report.Fig4(src.Fig4CDF()),
		"fig5":             report.Fig5(src.Fig5FlowRatios()),
		"fig6":             report.Fig6(src.Fig6AnTShares()),
		"fig7":             report.Fig7(avgs),
		"fig8":             report.Fig8(src.Fig8AppCategoryAverages()),
		"fig9":             report.Fig9(src.Fig9Heatmap()),
		"fig10":            report.Fig10(src.Fig10Coverage()),
		"costs":            report.Costs(costs),
		"energy":           report.Energy(analysis.NewEnergyModel(), avgs.PerLibrary[corpus.LibAdvertisement]),
		"paper_comparison": report.PaperComparison(src.CompareWithPaper()),
		"summary.json":     json.String(),
	}
}

// TestGoldenFigures pins every rendered figure/table and the serialized
// JSON summary on the default seed: any refactor of the aggregation core
// must reproduce them byte-for-byte from both the batch and the streaming
// path. Regenerate deliberately with `go test ./internal/analysis -run
// TestGoldenFigures -update`.
func TestGoldenFigures(t *testing.T) {
	ds, ag := goldenFixture(t)

	batch := renderAll(t, ds)
	// The E4 baseline comparison needs per-flow records, so it only exists
	// on the batch side.
	batch["baselines"] = report.Baselines(
		baseline.CompareUA(ds), baseline.CompareHostname(ds), baseline.CompareContentType(ds))
	stream := renderAll(t, ag)

	if *updateGolden {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
		for name, got := range batch {
			path := filepath.Join("testdata", "golden", name+".golden")
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	check := func(path, name, got string) {
		t.Helper()
		want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".golden"))
		if err != nil {
			t.Fatalf("%s: %v (run with -update to regenerate)", path, err)
		}
		if got != string(want) {
			t.Errorf("%s/%s diverges from golden:\n--- golden ---\n%s\n--- got ---\n%s",
				path, name, want, got)
		}
	}
	for name, got := range batch {
		check("batch", name, got)
	}
	for name, got := range stream {
		check("streaming", name, got)
	}
}
