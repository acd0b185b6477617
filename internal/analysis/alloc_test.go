package analysis

import (
	"fmt"
	"math/rand"
	"testing"

	"libspector/internal/attribution"
)

// The fold-per-run allocation pin: once an accumulator's symbol tables
// and columns are warm (every entity of the corpus interned, every
// column grown to its final width), folding another run allocates at
// most the amortized slice-growth tail — no per-flow allocations.
func TestFoldAllocsPerRunStaysPinned(t *testing.T) {
	runs := mergeTestRuns(32)

	acc, err := NewAccumulator(mergeCats)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up: interns every symbol and grows every column.
	for i, run := range runs {
		if err := acc.Observe(i, run); err != nil {
			t.Fatal(err)
		}
	}
	next := len(runs)
	allocs := testing.AllocsPerRun(200, func() {
		for _, run := range runs {
			if err := acc.Observe(next, run); err != nil {
				t.Fatal(err)
			}
			next++
		}
	})
	perRun := allocs / float64(len(runs))
	// The only remaining allocation source is the coverage series (one
	// append per run, amortized doubling); anything above 1 alloc/run
	// means a per-flow allocation crept back into the fold.
	if perRun > 1.0 {
		t.Fatalf("streaming fold allocates %.2f allocs/run, want <= 1", perRun)
	}
}

// Same pin for the batch builder, which additionally materializes one
// FlowRecord per attributed flow: record/order appends are amortized
// slice growth, so the steady-state cost per run stays a small constant
// rather than scaling with per-flow allocations.
func TestDatasetFoldAllocsPerRunStaysPinned(t *testing.T) {
	runs := mergeTestRuns(32)

	b, err := NewDatasetBuilder(mergeCats)
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range runs {
		if err := b.Observe(i, run); err != nil {
			t.Fatal(err)
		}
	}
	next := len(runs)
	allocs := testing.AllocsPerRun(200, func() {
		for _, run := range runs {
			if err := b.Observe(next, run); err != nil {
				t.Fatal(err)
			}
			next++
		}
	})
	perRun := allocs / float64(len(runs))
	// Steady state leaves three growing slices (records, order, coverage)
	// whose doubling reallocations amortize to a few allocs per run. The
	// corpus here folds ~3 flows per run, so a per-flow allocation
	// regression (one alloc per flow or worse) clears this bound.
	if perRun > 4.0 {
		t.Fatalf("batch fold allocates %.2f allocs/run, want <= 4", perRun)
	}
}

// mergeTestRuns builds a deterministic corpus of runs with HTTP context
// on some flows, so the batch builder's strings-table interning (user
// agents, hosts, content types, app packages) is exercised, not just the
// core fold.
func mergeTestRuns(n int) []*attribution.RunResult {
	rng := rand.New(rand.NewSource(67))
	uas := []string{"okhttp/3.12.0", "Dalvik/2.1.0", ""}
	hosts := []string{"api.example.com", "cdn.example.net", ""}
	ctypes := []string{"application/json", "image/png", ""}
	runs := make([]*attribution.RunResult, 0, n)
	for r := 0; r < n; r++ {
		nFlows := 1 + rng.Intn(5)
		flows := make([]*attribution.Flow, 0, nFlows)
		for f := 0; f < nFlows; f++ {
			builtin := rng.Intn(6) == 0
			origin := mergeOrigins[rng.Intn(len(mergeOrigins))]
			if builtin {
				origin = "*-Advertisement"
			}
			fl := mkFlow(origin, mergeDomains[rng.Intn(len(mergeDomains))],
				rng.Int63n(10_000), rng.Int63n(100_000), builtin)
			fl.UserAgent = uas[rng.Intn(len(uas))]
			fl.HTTPHost = hosts[rng.Intn(len(hosts))]
			fl.ContentType = ctypes[rng.Intn(len(ctypes))]
			flows = append(flows, fl)
		}
		run := mkRun(fmt.Sprintf("sha-%03d", r), fmt.Sprintf("com.app.x%d", r),
			mergeAppCats[rng.Intn(len(mergeAppCats))], flows...)
		run.UDPWireBytes = rng.Int63n(5000)
		run.DNSWireBytes = rng.Int63n(5000)
		run.TCPWireBytes = rng.Int63n(50_000)
		runs = append(runs, run)
	}
	return runs
}
