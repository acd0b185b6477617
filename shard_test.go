package libspector_test

import (
	"context"
	"strings"
	"testing"

	"libspector"
	"libspector/internal/dispatch"
)

// TestMergeShardOutcomesRefusesWrongPlan: merging out-of-band shard
// outcomes accepts exactly the plan, in shard order (the determinism
// harness's topoFiles draws merge it). A missing file, a repeated one or
// a reordered list must be refused with an error naming the shard, not
// merged into a campaign over the wrong apps.
func TestMergeShardOutcomesRefusesWrongPlan(t *testing.T) {
	cfg := smallConfig(83, 20)
	exp, err := libspector.NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var outs [3]*dispatch.ShardOutcome
	for i := range outs {
		if outs[i], err = exp.RunShard(context.Background(), i, len(outs)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name   string
		shards []int
	}{
		{"two of three", []int{0, 1}},
		{"shard 0 twice", []int{0, 0, 1, 2}},
		{"reordered", []int{1, 0, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			list := make([]*dispatch.ShardOutcome, len(tc.shards))
			for i, s := range tc.shards {
				list[i] = outs[s]
			}
			res, err := exp.MergeShardOutcomes(list)
			if err == nil {
				t.Fatalf("merged shards %v into a campaign of %d of %d apps", tc.shards, res.Accounting.TotalApps, cfg.Apps)
			}
			if !strings.Contains(err.Error(), "shard") {
				t.Errorf("refusal does not name the shard: %v", err)
			}
		})
	}
}
