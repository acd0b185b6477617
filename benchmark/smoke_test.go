package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"libspector"
)

// smokeApps is the campaign size of the smoke runs: the whole pipeline of
// every workload, small enough for the package to test in seconds.
const smokeApps = 8

func smokeOptions(t *testing.T, w workload) runOptions {
	w.apps = smokeApps
	return runOptions{
		w: w, seed: 42, seconds: 0.001, tmpRoot: t.TempDir(), outDir: t.TempDir(),
		minCampaigns: 2, setupReps: 1,
	}
}

// absent and present name, per workload, layers the traced run must and
// must not have seen — the layer table's coarsest predictions.
var layerPresence = map[string]struct{ present, absent []string }{
	"fleet_compute": {
		present: []string{"synth.generate", "apkstore.roundtrip", "emulator.run", "dex.disassemble", "attribution.analyze", "analysis.fold"},
		absent:  []string{"artifacts.save", "journal.append", "resultstore.write", "artifacts.load", "journal.replay"},
	},
	"fleet_durable": {
		present: []string{"emulator.run", "artifacts.save", "journal.append", "resultstore.write"},
		absent:  []string{"artifacts.load", "journal.replay"},
	},
	"replay_resume": {
		present: []string{"synth.generate", "artifacts.load", "journal.replay", "attribution.analyze", "resultstore.write"},
		absent:  []string{"emulator.run", "apkstore.roundtrip", "collector.drain", "artifacts.save", "journal.append"},
	},
	"heavy_code":    {present: []string{"synth.generate", "emulator.run"}, absent: []string{"artifacts.save"}},
	"heavy_traffic": {present: []string{"synth.generate", "emulator.run"}, absent: []string{"artifacts.save"}},
	"fleet_faulted": {absent: layers},
}

func TestSmokeEveryWorkload(t *testing.T) {
	ctx := context.Background()
	figures := map[string]string{}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			o := smokeOptions(t, w)
			if w.name == "fleet_faulted" {
				// Eight apps at the workload's 20% may draw no fault at all;
				// fault every app once so the retry path certainly runs.
				shape := w.shape
				o.w.shape = func(c *libspector.Config) { shape(c); c.FaultRate = 1 }
			}
			// A deliberately wrong golden.json entry must be reported as a
			// failure — and be the only thing wrong with the run.
			o.pins = &golden{Seed: o.seed, Workloads: map[string]pin{w.name: {FiguresSHA: "not-the-sha"}}}
			rep, err := runEndToEnd(ctx, o)
			if err != nil {
				t.Fatal(err)
			}
			if rep.result.Correct || len(rep.detail.Problems) != 1 || !strings.Contains(rep.detail.Problems[0], "golden") {
				t.Fatalf("wrong pin: correct=%v, problems %v", rep.result.Correct, rep.detail.Problems)
			}
			if rep.result.Failed != 0 || rep.result.Attempted != smokeApps*len(rep.detail.Campaigns) || len(rep.detail.Campaigns) < o.minCampaigns {
				t.Fatalf("untraced run: %+v over %d campaigns", rep.result, len(rep.detail.Campaigns))
			}
			if len(rep.result.Metrics) != len(endToEnd) {
				t.Errorf("untraced run emitted %d metrics, want the %d end-to-end ones", len(rep.result.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				if v, ok := rep.result.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", m.Name, v, ok, m.Unit)
				}
			}
			disk := rep.detail.Samples["disk_kb_per_app"][0]
			if w.durable != (disk > 0) {
				t.Errorf("disk_kb_per_app = %v on a workload with durable=%v", disk, w.durable)
			}
			first := rep.detail.Campaigns[0]
			if w.sameCorpus {
				figures[w.name] = first.FiguresSHA
			}
			if w.name == "fleet_faulted" && (first.Retried == 0 || first.Attempts <= smokeApps) {
				t.Errorf("fleet_faulted: %d attempts, %d retried over %d faulted apps", first.Attempts, first.Retried, smokeApps)
			}
			// The traced run is held to the right pin.
			o.pins.Workloads[w.name] = pin{FiguresSHA: first.FiguresSHA, StoreSHA: first.StoreSHA, Attempts: first.Attempts, Retried: first.Retried}

			traced, err := runTraced(ctx, o)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.result.Correct {
				t.Fatalf("traced run: problems %v", traced.detail.Problems)
			}
			if got := traced.detail.Campaigns[0].FiguresSHA; got != first.FiguresSHA {
				t.Errorf("traced run figures %s, untraced %s", got, first.FiguresSHA)
			}
			if len(traced.result.Metrics) != len(perLayer()) {
				t.Errorf("traced run emitted %d metrics, want the %d per-layer ones", len(traced.result.Metrics), len(perLayer()))
			}
			for _, l := range layerPresence[w.name].present {
				if traced.result.Metrics[l+".ns_per_app"].Value <= 0 {
					t.Errorf("layer %s did no work", l)
				}
			}
			for _, l := range layerPresence[w.name].absent {
				if traced.result.Metrics[l+".ns_per_app"].Value != 0 {
					t.Errorf("layer %s worked on a workload that never calls it", l)
				}
			}
			if w.staged {
				if drift := traced.result.Metrics["trace.alloc_drift"].Value; drift < -0.03 || drift > 0.03 {
					t.Errorf("staged pass allocates %.1f%% off the Workers: 1 facade run; it has drifted from dispatch's runOne", 100*drift)
				}
				if _, err := os.Stat(filepath.Join(o.outDir, "trace-"+w.name+".jsonl")); err != nil {
					t.Errorf("no trace written: %v", err)
				}
			}
			if left, _ := os.ReadDir(o.tmpRoot); len(left) != 0 {
				t.Errorf("%d temp campaign dirs left behind", len(left))
			}
		})
	}
	if _, err := os.Stat("events.jsonl"); err == nil {
		t.Error("a diskless campaign wrote events.jsonl into the working directory")
	}
	// One corpus, one set of figures — with or without persistence, faults
	// or a resume in between.
	for name, sha := range figures {
		if sha != figures["fleet_compute"] {
			t.Errorf("%s figures %s differ from fleet_compute's %s over the same corpus", name, sha, figures["fleet_compute"])
		}
	}
}

// A run that cannot be made prints no result line and exits non-zero.
func TestRunFailsWithoutResult(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run(context.Background(), []string{"-workload", "no_such_workload", "-out", t.TempDir()}, &out, &errOut)
	if code == 0 || out.Len() != 0 || !strings.Contains(errOut.String(), "no_such_workload") {
		t.Errorf("exit %d, stdout %q, stderr %q", code, out.String(), errOut.String())
	}
}
