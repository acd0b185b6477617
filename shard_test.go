package libspector_test

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"libspector"
	"libspector/internal/dispatch"
)

// TestMergeShardOutcomesRefusesWrongPlan: merging out-of-band shard
// outcomes accepts exactly the plan, in shard order (the determinism
// harness's topoFiles draws merge it). A missing file, a repeated one, a
// reordered list, or — in a campaign that logs events and traces — an
// outcome whose events or spans are missing must be refused with an error naming the shard, not
// merged into a campaign over the wrong apps or into a partial log.
func TestMergeShardOutcomesRefusesWrongPlan(t *testing.T) {
	cfg := smallConfig(83, 20)
	var outs [3]*dispatch.ShardOutcome
	for i := range outs {
		shard := cfg
		observe(&shard)
		exp, err := libspector.NewExperiment(shard)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "shard.outcome")
		if err := exp.RunShardChild(context.Background(), libspector.ShardChild{Index: i, Shards: len(outs), Out: path}); err != nil {
			t.Fatal(err)
		}
		if outs[i], err = dispatch.ReadShardOutcome(path); err != nil {
			t.Fatal(err)
		}
	}
	evlog := observe(&cfg)
	exp, err := libspector.NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mute, untraced := *outs[1], *outs[1]
	mute.Telemetry.Events, untraced.Telemetry.Spans = nil, nil
	for _, tc := range []struct {
		name, want string
		list       []*dispatch.ShardOutcome
	}{
		{"two of three", "shard", outs[:2]},
		{"shard 0 twice", "shard", []*dispatch.ShardOutcome{outs[0], outs[0], outs[1], outs[2]}},
		{"reordered", "shard", []*dispatch.ShardOutcome{outs[1], outs[0], outs[2]}},
		{"shard 1 without events", "shard 1 outcome over apps [7, 14) carries no events", []*dispatch.ShardOutcome{outs[0], &mute, outs[2]}},
		{"shard 1 without spans", "shard 1 outcome over apps [7, 14) carries no spans", []*dispatch.ShardOutcome{outs[0], &untraced, outs[2]}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := exp.MergeShardOutcomes(tc.list)
			if err == nil {
				t.Fatalf("merged into a campaign of %d of %d apps", res.Accounting.TotalApps, cfg.Apps)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("refusal %q does not say %q", err, tc.want)
			}
		})
	}
	if n := evlog.Len(); n != 0 {
		t.Errorf("refused merges logged %d events", n)
	}
}
