package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"testing"
)

func sampleReport() *runReport {
	return &runReport{
		result: driverResult{
			Correct: true, Attempted: 256, Failed: 0,
			Metrics: map[string]metricValue{"apps_per_s": {Value: 104.25, Unit: "apps/s"}},
		},
		detail: runDetail{
			Workload: "fleet_compute", Seed: 42,
			Campaigns: []campaignDetail{{Seed: 42, Apps: 128, FiguresSHA: "abc", Attempts: 128}},
			Samples:   map[string][]float64{"apps_per_s": {104.25, 99.5}},
		},
	}
}

// The driver reads the last line of standard output and accepts exactly
// four keys; the parent reads the detail line before it.
func TestResultLinesRoundTrip(t *testing.T) {
	rep := sampleReport()
	var out bytes.Buffer
	if err := printRun(&out, rep); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(out.Bytes(), "\n"), []byte("\n"))
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &raw); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("result keys %v, want %v", keys, want)
	}
	c, err := parseChild(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.result, rep.result) || !reflect.DeepEqual(c.detail, rep.detail) {
		t.Errorf("round trip changed the run:\n got %+v %+v\nwant %+v %+v", c.result, c.detail, rep.result, rep.detail)
	}
	if _, err := parseChild([]byte("panic: boom\ngoroutine 1 [running]:\n")); err == nil {
		t.Error("a child that printed no result line parsed as a run")
	}
}

func TestLedgerRoundTrip(t *testing.T) {
	led := testLedger(100)
	led.Workloads[0].PerLayer = map[string]metricValue{"synth.generate.share": {Value: 0.28, Unit: "ratio"}}
	data, err := json.Marshal(led)
	if err != nil {
		t.Fatal(err)
	}
	var back ledger
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, led) {
		t.Errorf("round trip changed the ledger:\n got %+v\nwant %+v", back, *led)
	}
}

func TestPinCheck(t *testing.T) {
	c := campaignDetail{FiguresSHA: "aa", StoreSHA: "bb", Attempts: 146, Retried: 18}
	if p := (pin{FiguresSHA: "aa", StoreSHA: "bb", Attempts: 146, Retried: 18}).check(c); len(p) != 0 {
		t.Errorf("matching pin reported %v", p)
	}
	if p := (pin{FiguresSHA: "zz", StoreSHA: "yy", Attempts: 1, Retried: 1}).check(c); len(p) != 3 {
		t.Errorf("wrong pin reported %d problems, want 3: %v", len(p), p)
	}
	// A diskless workload pins no store and no attempts.
	if p := (pin{FiguresSHA: "aa"}).check(c); len(p) != 0 {
		t.Errorf("figures-only pin reported %v", p)
	}
}
