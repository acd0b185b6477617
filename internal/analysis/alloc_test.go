package analysis

import (
	"fmt"
	"math/rand"
	"testing"

	"libspector/internal/attribution"
	"libspector/internal/baseline"
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

// The baseline fold's per-flow work — the User-Agent memo and classifier,
// the content-type classifier, the cell update — allocates nothing once a
// flow's cell exists, even when every flow's User-Agent differs from the
// last one's, so folding the same run again costs E4 nothing.
func TestBaselineFoldAllocatesNothing(t *testing.T) {
	c, err := newCore(mergeCats)
	if err != nil {
		t.Fatal(err)
	}
	run := mkRun("sha-e4", "com.app.e4", "TOOLS",
		mkFlow("com.vungle.publisher", "ads.example.com", 100, 2000, false),
		mkFlow("okhttp3.internal.http", "cdn.example.net", 100, 2000, false),
		mkFlow("com.app.local.net", "api.example.com", 100, 2000, false))
	run.Flows[0].UserAgent, run.Flows[0].ContentType = mergeUAs[0], "image/webp"
	run.Flows[1].UserAgent, run.Flows[1].ContentType = "Dalvik/2.1.0", "application/json"
	run.Flows[2].UserAgent = "OkHttp/3.12.0"
	if err := c.observe(0, run); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, f := range run.Flows {
			c.addE4(c.syms.origins.Intern(f.OriginLibrary), c.syms.domains.Intern(f.Domain), f)
		}
	})
	if allocs != 0 {
		t.Errorf("the baseline fold allocates %.1f objects per run, want 0", allocs)
	}
	verdicts := []baseline.Verdict{baseline.UAAd | baseline.HostAd | baseline.ContentAd, baseline.HostCDN, 0}
	for i, f := range run.Flows {
		origin, _ := c.syms.origins.Lookup(f.OriginLibrary)
		if _, ok := c.e4[e4Cell{origin, verdicts[i]}]; !ok || len(c.e4) != len(verdicts) {
			t.Errorf("flow %d: no cell with verdict %#x in %v", i, verdicts[i], c.e4)
		}
	}
}

// mergeTestRuns builds a deterministic corpus of runs with HTTP context
// on some flows, so the baseline classifiers run inside the fold.
func mergeTestRuns(n int) []*attribution.RunResult {
	rng := rand.New(rand.NewSource(67))
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
			fl.UserAgent = mergeUAs[rng.Intn(len(mergeUAs))]
			fl.ContentType = mergeCTypes[rng.Intn(len(mergeCTypes))]
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
