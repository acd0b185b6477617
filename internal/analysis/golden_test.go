package analysis_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"libspector/internal/analysis"
	"libspector/internal/analysis/analysistest"
	"libspector/internal/attribution"
	"libspector/internal/dispatch"
	"libspector/internal/dispatch/dispatchtest"
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
	_, runs, err := dispatchtest.Run(world, world.Resolver, dispatch.Config{
		Workers:    4,
		Emulator:   opts,
		BaseSeed:   cfg.Seed,
		Detector:   detector,
		Attributor: attribution.NewAttributor(domains),
	}, acc)
	if err != nil {
		t.Fatal(err)
	}
	detector.Finalize(2)
	ds, err := analysistest.BuildDataset(runs, detector, domains)
	if err != nil {
		t.Fatal(err)
	}
	ag, err := acc.Finish(detector)
	if err != nil {
		t.Fatal(err)
	}
	return ds, ag
}

// renderAll renders every report section but Table I, whose counts come
// from the domain service rather than the fold, keyed by golden-file stem:
// the section id, plus the serialized summary. The record-level sections
// render only from a dataset. One golden thus pins the batch and the
// streaming path, through the section table both CLIs print from.
func renderAll(t *testing.T, ag *analysis.Aggregates, ds *analysis.Dataset) map[string]string {
	t.Helper()
	var json bytes.Buffer
	if err := ag.Summarize(25).WriteJSON(&json); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{"summary.json": json.String()}
	in := report.Inputs{Aggregates: ag, Dataset: ds, TopN: 25}
	for _, s := range report.Sections {
		if s.ID != "T1" && (!s.Records || ds != nil) {
			out[s.ID] = s.Render(in)
		}
	}
	return out
}

// TestGoldenFigures pins every rendered figure/table and the serialized
// JSON summary on the default seed: any refactor of the aggregation core
// must reproduce them byte-for-byte from both the batch and the streaming
// path. Regenerate deliberately with `go test ./internal/analysis -run
// TestGoldenFigures -update`.
func TestGoldenFigures(t *testing.T) {
	ds, ag := goldenFixture(t)

	batch := renderAll(t, ds.Aggregates(), ds)
	stream := renderAll(t, ag, nil)

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
