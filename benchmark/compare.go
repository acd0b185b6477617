package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is -compare's judgement of one (workload, metric) pair.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// worsening is how far b's median lies on the wrong side of a's, as a
// share of a's median; negative when b is better.
func worsening(m metricDef, a, b float64) float64 {
	if a == 0 {
		switch {
		case b == 0:
			return 0
		case (m.Better == "lower") == (b > 0):
			return 1
		default:
			return -1
		}
	}
	d := (b - a) / a
	if m.Better == "higher" {
		d = -d
	}
	return d
}

// judge applies a metric's own bound to a baseline a and a candidate b.
// A candidate whose median is worse by more than the bound is worse —
// unless the two sides' min–max ranges still overlap and are themselves
// wider than the bound, in which case the runs cannot resolve it. A
// median within the bound is ok unless the spread is wider than the bound
// and the ranges leave room for a regression of that size, which is also
// unresolved, not unchanged.
func judge(m metricDef, a, b summary) verdict {
	if a.N == 0 || b.N == 0 {
		return verdictUnresolved
	}
	w := worsening(m, a.Median, b.Median)
	if m.Exact {
		if w > 0 {
			return verdictWorse
		}
		return verdictOK
	}
	spread := 0.0
	for _, s := range []summary{a, b} {
		if s.Median != 0 {
			spread = max(spread, (s.Max-s.Min)/s.Median)
		}
	}
	overlap := a.Min <= b.Max && b.Min <= a.Max
	// Every run of b at least as good as every run of a: b's worst run
	// against a's best, whichever end of the range that is.
	allBetter := worsening(m, a.Min, b.Max) <= 0 && worsening(m, a.Max, b.Min) <= 0
	switch {
	case w > m.Bound && overlap && spread > m.Bound:
		return verdictUnresolved
	case w > m.Bound:
		return verdictWorse
	case spread > m.Bound && !allBetter:
		return verdictUnresolved
	default:
		return verdictOK
	}
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var led ledger
	if err := json.Unmarshal(data, &led); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if led.Schema != ledgerSchema {
		return nil, fmt.Errorf("%s: schema %d, this harness reads %d", path, led.Schema, ledgerSchema)
	}
	return &led, nil
}

// compareFiles prints one row per (workload, metric) of two ledgers —
// both medians, the ratio with its base, and the verdict — and reports
// whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readLedger(pathA)
	if err != nil {
		return false, err
	}
	b, err := readLedger(pathB)
	if err != nil {
		return false, err
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "note: the sides differ in settings (seed %d vs %d, %.0f s vs %.0f s); outputs are not expected to match\n", a.Seed, b.Seed, a.Seconds, b.Seconds)
	}
	fmt.Fprintf(w, "%-14s %-18s %14s %14s  %-34s %-7s %s\n", "workload", "metric", "a", "b", "b/a", "bound", "verdict")
	byName := map[string]workloadLedger{}
	for _, wl := range b.Workloads {
		byName[wl.Name] = wl
	}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(w, "%-14s missing from %s\n", wa.Name, pathB)
			worse = true
			continue
		}
		for _, m := range judged() {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			v := judge(m, sa, sb)
			if v == verdictWorse {
				worse = true
			}
			ratio := "n/a (base 0)"
			if sa.Median != 0 {
				ratio = fmt.Sprintf("%.4f of %.4f %s", sb.Median/sa.Median, sa.Median, m.Unit)
			}
			bound := fmt.Sprintf("%.1f%%", 100*m.Bound)
			if m.Exact {
				bound = "exact"
			}
			fmt.Fprintf(w, "%-14s %-18s %14.4f %14.4f  %-34s %-7s %s\n", wa.Name, m.Name, sa.Median, sb.Median, ratio, bound, v)
		}
		if a.Seed == b.Seed && (wa.FiguresSHA != wb.FiguresSHA || wa.StoreSHA != wb.StoreSHA || wa.Attempts != wb.Attempts || wa.Retried != wb.Retried) {
			fmt.Fprintf(w, "%-14s outputs differ: figures %.12s vs %.12s, store %.12s vs %.12s, attempts %d/%d vs %d/%d\n",
				wa.Name, wa.FiguresSHA, wb.FiguresSHA, wa.StoreSHA, wb.StoreSHA, wa.Attempts, wa.Retried, wb.Attempts, wb.Retried)
			worse = true
		}
	}
	return worse, nil
}
