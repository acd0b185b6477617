package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricValue is one named measurement with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult is the last line a single run prints on standard output:
// exactly the keys the driver's contract names.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// campaignDetail identifies what one timed campaign of a run produced, so
// the parent of an all-workloads invocation can compare outputs across
// repetitions and workloads.
type campaignDetail struct {
	Seed       uint64 `json:"seed"`
	Apps       int    `json:"apps"`
	FiguresSHA string `json:"figures_sha"`
	StoreSHA   string `json:"store_sha,omitempty"`
	Attempts   int    `json:"attempts"`
	Retried    int    `json:"retried"`
}

// runDetail is the line before the driver result ("detail {...}"): what
// the run observed beyond the driver's four keys.
type runDetail struct {
	Workload  string               `json:"workload"`
	Seed      uint64               `json:"seed"`
	Traced    bool                 `json:"traced"`
	Campaigns []campaignDetail     `json:"campaigns"`
	Samples   map[string][]float64 `json:"samples,omitempty"` // per-campaign values of each end-to-end metric
	Problems  []string             `json:"problems,omitempty"`
}

// summary is the order statistics of one metric over repetitions.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(unit string, values []float64) summary {
	s := summary{Unit: unit, N: len(values), Values: values}
	if len(values) == 0 {
		return s
	}
	s.Median = median(values)
	s.Min, s.Max = values[0], values[0]
	for _, v := range values[1:] {
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	return s
}

// median of a non-empty sample; the mean of the middle two when even.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// workloadLedger is one workload's section of results.json.
type workloadLedger struct {
	Name       string                 `json:"name"`
	EndToEnd   map[string]summary     `json:"end_to_end"`
	PerLayer   map[string]metricValue `json:"per_layer,omitempty"`
	FiguresSHA string                 `json:"figures_sha"`
	StoreSHA   string                 `json:"store_sha,omitempty"`
	Attempts   int                    `json:"attempts"`
	Retried    int                    `json:"retried"`
	FailedReps int                    `json:"failed_reps"`
	Problems   []string               `json:"problems,omitempty"`
}

// ledger is results.json: what one all-workloads invocation measured, and
// the input of -compare.
type ledger struct {
	Schema    int              `json:"schema"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Reps      int              `json:"reps"`
	NProc     int              `json:"nproc"`
	GoVersion string           `json:"go"`
	Workloads []workloadLedger `json:"workloads"`
}

const ledgerSchema = 1

// pin is what golden.json records for campaign 0 of one workload.
type pin struct {
	FiguresSHA string `json:"figures_sha"`
	StoreSHA   string `json:"store_sha,omitempty"`
	Attempts   int    `json:"attempts,omitempty"`
	Retried    int    `json:"retried,omitempty"`
}

// golden pins the outputs of the default seed. A pin applies only to
// campaign 0 of a run at exactly this seed.
type golden struct {
	Seed      uint64         `json:"seed"`
	Workloads map[string]pin `json:"workloads"`
}

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// check compares a campaign with its pin and returns one problem per
// mismatch. Only fleet_faulted pins attempts.
func (p pin) check(c campaignDetail) []string {
	var problems []string
	if c.FiguresSHA != p.FiguresSHA {
		problems = append(problems, fmt.Sprintf("figures_sha %s differs from golden %s", c.FiguresSHA, p.FiguresSHA))
	}
	if p.StoreSHA != "" && c.StoreSHA != p.StoreSHA {
		problems = append(problems, fmt.Sprintf("store_sha %s differs from golden %s", c.StoreSHA, p.StoreSHA))
	}
	if p.Attempts != 0 && (c.Attempts != p.Attempts || c.Retried != p.Retried) {
		problems = append(problems, fmt.Sprintf("attempts/retried %d/%d differ from golden %d/%d", c.Attempts, c.Retried, p.Attempts, p.Retried))
	}
	return problems
}
