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
// harness's topoFiles draws merge it). A missing file, a repeated one, a
// reordered list, or — in a campaign that logs events — an outcome whose
// events are missing must be refused with an error naming the shard, not
// merged into a campaign over the wrong apps or into a partial log.
func TestMergeShardOutcomesRefusesWrongPlan(t *testing.T) {
	cfg := smallConfig(83, 20)
	evlog := observe(&cfg)
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
	mute := *outs[1]
	mute.Events = nil
	for _, tc := range []struct {
		name string
		list []*dispatch.ShardOutcome
	}{
		{"two of three", outs[:2]},
		{"shard 0 twice", []*dispatch.ShardOutcome{outs[0], outs[0], outs[1], outs[2]}},
		{"reordered", []*dispatch.ShardOutcome{outs[1], outs[0], outs[2]}},
		{"shard 1 without events", []*dispatch.ShardOutcome{outs[0], &mute, outs[2]}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := exp.MergeShardOutcomes(tc.list)
			if err == nil {
				t.Fatalf("merged into a campaign of %d of %d apps", res.Accounting.TotalApps, cfg.Apps)
			}
			if !strings.Contains(err.Error(), "shard") {
				t.Errorf("refusal does not name the shard: %v", err)
			}
		})
	}
	if n := evlog.Len(); n != 0 {
		t.Errorf("refused merges logged %d events", n)
	}
}
