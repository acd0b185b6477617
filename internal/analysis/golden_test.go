package analysis_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"libspector/internal/analysis"
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

// goldenFixture runs one small fleet on the default seed, four workers
// wide, and returns the aggregates its runs folded into in completion
// order.
func goldenFixture(t *testing.T) *analysis.Aggregates {
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
	_, _, err = dispatchtest.Run(world, world.Resolver, dispatch.Config{
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
	ag, err := acc.Finish(detector)
	if err != nil {
		t.Fatal(err)
	}
	return ag
}

// renderAll renders every report section but Table I, whose counts come
// from the domain service rather than the fold, keyed by golden-file stem:
// the section id, plus the serialized summary, through the section table
// both CLIs print from.
func renderAll(t *testing.T, ag *analysis.Aggregates) map[string]string {
	t.Helper()
	var json bytes.Buffer
	if err := ag.Summarize(25).WriteJSON(&json); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{"summary.json": json.String()}
	in := report.Inputs{Aggregates: ag, TopN: 25}
	for _, s := range report.Sections {
		if s.ID != "T1" {
			out[s.ID] = s.Render(in)
		}
	}
	return out
}

// TestGoldenFigures pins every rendered figure/table and the serialized
// JSON summary on the default seed: any refactor of the aggregation core
// must reproduce them byte-for-byte, whatever order the four workers'
// runs complete in. Regenerate deliberately with `go test
// ./internal/analysis -run TestGoldenFigures -update`.
func TestGoldenFigures(t *testing.T) {
	got := renderAll(t, goldenFixture(t))

	if *updateGolden {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
		for name, text := range got {
			path := filepath.Join("testdata", "golden", name+".golden")
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	for name, text := range got {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".golden"))
		if err != nil {
			t.Fatalf("%v (run with -update to regenerate)", err)
		}
		if text != string(want) {
			t.Errorf("%s diverges from golden:\n--- golden ---\n%s\n--- got ---\n%s", name, want, text)
		}
	}
}

// TestAccumulatorValidation covers the constructor and lifecycle guards.
func TestAccumulatorValidation(t *testing.T) {
	if _, err := analysis.NewAccumulator(nil); err == nil {
		t.Error("nil domain categorizer should fail")
	}
	svc, err := vtclient.NewService(vtclient.NewOracle(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	acc, err := analysis.NewAccumulator(svc)
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Observe(0, nil); err == nil {
		t.Error("nil run should fail")
	}
	if _, err := acc.Finish(nil); err == nil {
		t.Error("nil detector should fail")
	}
	det := libradar.SeededDetector()
	det.Finalize(2)
	if _, err := acc.Finish(det); err != nil {
		t.Fatal(err)
	}
	if err := acc.Observe(0, &attribution.RunResult{}); err == nil {
		t.Error("observe after finish should fail")
	}
	if _, err := acc.Finish(det); err == nil {
		t.Error("double finish should fail")
	}
}
