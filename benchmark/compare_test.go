package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := summarize("ms", []float64{5, 1, 9, 3})
	if s.Median != 4 || s.Min != 1 || s.Max != 9 || s.N != 4 || s.Unit != "ms" {
		t.Errorf("got %+v", s)
	}
	if m := median([]float64{7, 2, 5}); m != 5 {
		t.Errorf("odd median = %v, want 5", m)
	}
	if s := summarize("ms", nil); s.N != 0 || s.Median != 0 {
		t.Errorf("empty sample: %+v", s)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "cpu_ms_per_app", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "apps_per_s", Better: "higher", Bound: 0.10}
	exact := metricDef{Name: "failed_frac", Better: "lower", Exact: true}
	tight := func(v float64) summary { return summarize("", []float64{v * 0.99, v, v * 1.01}) }
	wide := func(v float64) summary { return summarize("", []float64{v * 0.8, v, v * 1.2}) }
	cases := []struct {
		name string
		m    metricDef
		a, b summary
		want verdict
	}{
		{"within bound", lower, tight(100), tight(105), verdictOK},
		{"better", lower, tight(100), tight(50), verdictOK},
		{"worse beyond bound", lower, tight(100), tight(115), verdictWorse},
		{"higher-is-better drop", higher, tight(100), tight(85), verdictWorse},
		{"higher-is-better gain", higher, tight(100), tight(130), verdictOK},
		{"worse but ranges overlap and are wide", lower, wide(100), wide(115), verdictUnresolved},
		{"same median, spread wider than bound", lower, wide(100), wide(100), verdictUnresolved},
		{"wide but every run better", lower, wide(100), wide(50), verdictOK},
		{"no runs on one side", lower, tight(100), summary{}, verdictUnresolved},
		{"exact count unchanged", exact, tight(0), tight(0), verdictOK},
		{"exact count any increase", exact, summarize("", []float64{0, 0, 0}), summarize("", []float64{0, 0.01, 0.01}), verdictWorse},
	}
	for _, c := range cases {
		if got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

func testLedger(apps float64) *ledger {
	wl := workloadLedger{Name: "fleet_compute", FiguresSHA: "f00d", EndToEnd: map[string]summary{}}
	for _, m := range judged() {
		wl.EndToEnd[m.Name] = summarize(m.Unit, []float64{10, 10, 10})
	}
	wl.EndToEnd["apps_per_s"] = summarize("apps/s", []float64{apps, apps, apps})
	wl.EndToEnd["failed_frac"] = summarize("ratio", []float64{0, 0, 0})
	return &ledger{Schema: ledgerSchema, Seed: 42, Seconds: 10, Reps: 3, Workloads: []workloadLedger{wl}}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, led *ledger) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, led); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", testLedger(100))
	same := write("b.json", testLedger(97))
	slow := write("c.json", testLedger(70))
	failing := testLedger(100)
	failing.Workloads[0].EndToEnd["failed_frac"] = summarize("ratio", []float64{0, 0.5, 1})
	failed := write("d.json", failing)

	var out bytes.Buffer
	if worse, err := compareFiles(&out, base, same); err != nil || worse {
		t.Errorf("3%% slower judged worse=%v err=%v\n%s", worse, err, out.String())
	}
	// The ratio is printed with its base.
	if !strings.Contains(out.String(), "0.9700 of 100.0000 apps/s") {
		t.Errorf("ratio without base:\n%s", out.String())
	}
	out.Reset()
	if worse, err := compareFiles(&out, base, slow); err != nil || !worse {
		t.Errorf("30%% slower judged worse=%v err=%v", worse, err)
	}
	if worse, err := compareFiles(&out, base, failed); err != nil || !worse {
		t.Errorf("failed_frac increase judged worse=%v err=%v", worse, err)
	}
	// The CLI exits non-zero on a regression and zero otherwise.
	if code := run(context.Background(), []string{"-compare", base, slow}, &out, &out); code != 1 {
		t.Errorf("exit code %d on a regression, want 1", code)
	}
	if code := run(context.Background(), []string{"-compare", base, same}, &out, &out); code != 0 {
		t.Errorf("exit code %d on agreement, want 0", code)
	}
}
