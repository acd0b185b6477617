package libspector_test

import (
	"path/filepath"
	"testing"

	"libspector"
	"libspector/internal/resultstore"
)

// TestResultStoreAnswersWithoutRun checks the offline contract: a store
// written by one campaign answers point queries from disk, with rollups
// matching a full scan, without any experiment state.
func TestResultStoreAnswersWithoutRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.store")
	cfg := smallConfig(97, 24)
	cfg.ResultStore = path
	exp, err := libspector.NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Run(); err != nil {
		t.Fatal(err)
	}

	st, err := resultstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	full, err := st.Query(resultstore.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Rollup.Flows == 0 || full.Rollup.Attributed == 0 {
		t.Fatalf("store holds no attributed flows: %+v", full.Rollup)
	}

	// Every origin library's point lookup must equal the sum the full
	// grouped scan reports for it.
	grouped, err := st.Query(resultstore.Query{GroupBy: resultstore.GroupOrigin})
	if err != nil {
		t.Fatal(err)
	}
	if len(grouped.Groups) == 0 {
		t.Fatal("no origin groups")
	}
	for _, g := range grouped.Groups[:min(5, len(grouped.Groups))] {
		res, err := st.Query(resultstore.Query{Origin: g.Key})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rollup.Flows != g.Flows || res.Rollup.BytesSent+res.Rollup.BytesReceived != g.BytesSent+g.BytesReceived {
			t.Fatalf("point lookup for %q disagrees with grouped scan: %+v vs %+v", g.Key, res.Rollup, g)
		}
	}
}
