package dispatch

import (
	"context"
	"reflect"
	"testing"
)

// TestMergeOutcomesMatchesExecute: merging outcomes gathered out-of-band
// is the merge Execute ends with — same ledger, partials, and snapshot —
// and an empty or holed list is refused rather than merged into a
// campaign that silently covers less than the plan.
func TestMergeOutcomesMatchesExecute(t *testing.T) {
	plan := ShardPlan{TotalApps: 10, Shards: 3, Workers: 3}
	outcomes := make([]*ShardOutcome, plan.Shards)
	c := &Coordinator{Plan: plan, Run: func(ctx context.Context, task ShardTask) (*ShardOutcome, error) {
		outcomes[task.Index] = okOutcome(task)
		return outcomes[task.Index], nil
	}}
	want, err := c.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := MergeOutcomes(outcomes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MergeOutcomes = %+v, Execute merged %+v", got, want)
	}
	if _, err := MergeOutcomes(nil); err == nil {
		t.Error("empty outcome list merged")
	}
	outcomes[1] = nil
	if _, err := MergeOutcomes(outcomes); err == nil {
		t.Error("outcome list with a missing shard merged")
	}
}
