package dispatch

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"libspector/internal/obs"
)

func TestShardPlanRangesPartitionCorpus(t *testing.T) {
	for _, tc := range []struct{ apps, shards int }{
		{10, 1}, {10, 2}, {10, 3}, {10, 7}, {7, 7}, {3, 7}, {0, 4}, {100, 4},
	} {
		plan := ShardPlan{TotalApps: tc.apps, Shards: tc.shards, Workers: 8}
		if err := plan.Validate(); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		next := 0
		for i := 0; i < tc.shards; i++ {
			r := plan.Range(i)
			if r.Lo != next {
				t.Fatalf("%+v: shard %d starts at %d, want %d (ranges must be contiguous)", tc, i, r.Lo, next)
			}
			if r.Hi < r.Lo {
				t.Fatalf("%+v: shard %d has inverted range %+v", tc, i, r)
			}
			next = r.Hi
		}
		if next != tc.apps {
			t.Fatalf("%+v: ranges cover %d apps, want %d", tc, next, tc.apps)
		}
		// Even split: no shard is more than one app bigger than another.
		min, max := tc.apps, 0
		for i := 0; i < tc.shards; i++ {
			n := plan.Range(i).Len()
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		if max-min > 1 {
			t.Fatalf("%+v: uneven split (min %d, max %d)", tc, min, max)
		}
	}
}

func TestShardPlanWorkersSumToBudget(t *testing.T) {
	for _, tc := range []struct{ workers, shards, wantSum int }{
		{8, 4, 8}, {8, 3, 8}, {7, 2, 7}, {4, 4, 4},
		// Fewer workers than shards: every shard still gets one worker, so
		// the sum inflates to the shard count — the documented reason the
		// byte-identity invariant requires Workers >= Shards.
		{2, 4, 4},
	} {
		plan := ShardPlan{TotalApps: 100, Shards: tc.shards, Workers: tc.workers}
		sum := 0
		for i := 0; i < tc.shards; i++ {
			w := plan.WorkersFor(i)
			if w < 1 {
				t.Fatalf("%+v: shard %d got %d workers", tc, i, w)
			}
			sum += w
		}
		if sum != tc.wantSum {
			t.Fatalf("%+v: workers sum to %d, want %d", tc, sum, tc.wantSum)
		}
	}
}

func TestShardPlanValidate(t *testing.T) {
	if err := (ShardPlan{TotalApps: 10, Shards: 0}).Validate(); err == nil {
		t.Fatal("zero shards validated")
	}
	if err := (ShardPlan{TotalApps: -1, Shards: 1}).Validate(); err == nil {
		t.Fatal("negative corpus validated")
	}
}

func coordSnapshot(apps int64) obs.Snapshot {
	return obs.Snapshot{
		Counters:   map[string]int64{"fleet_apps_total": apps},
		Gauges:     map[string]int64{},
		Histograms: map[string]obs.HistogramSnapshot{},
	}
}

func okOutcome(task ShardTask) *ShardOutcome {
	return &ShardOutcome{
		Index:      task.Index,
		Range:      task.Range,
		Accounting: Accounting{TotalApps: task.Range.Len(), Completed: task.Range.Len()},
		Telemetry:  obs.Bundle{Snapshot: coordSnapshot(int64(task.Range.Len()))},
		Partial:    []byte{byte(task.Index)},
	}
}

func TestCoordinatorMergesShards(t *testing.T) {
	c := &Coordinator{
		Plan: ShardPlan{TotalApps: 10, Shards: 4, Workers: 8},
		Run: func(ctx context.Context, task ShardTask) (*ShardOutcome, error) {
			out := okOutcome(task)
			out.Failures = []RunFailure{{AppIndex: task.Range.Lo, Err: errors.New("x"), Attempts: 1}}
			return out, nil
		},
	}
	out, err := c.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Accounting.TotalApps != 10 || out.Accounting.Completed != 10 {
		t.Fatalf("accounting = %+v", out.Accounting)
	}
	if out.Telemetry.Snapshot.Counters["fleet_apps_total"] != 10 {
		t.Fatalf("snapshot = %+v", out.Telemetry.Snapshot)
	}
	if len(out.Partials) != 4 {
		t.Fatalf("partials = %d, want 4", len(out.Partials))
	}
	for i := 1; i < len(out.Failures); i++ {
		if out.Failures[i-1].AppIndex > out.Failures[i].AppIndex {
			t.Fatalf("failures unsorted: %+v", out.Failures)
		}
	}
	if out.Takeovers != 0 {
		t.Fatalf("healthy campaign consumed %d takeovers", out.Takeovers)
	}
}

func TestCoordinatorTakesOverDeadShard(t *testing.T) {
	var attempts atomic.Int64
	c := &Coordinator{
		Plan:         ShardPlan{TotalApps: 8, Shards: 2, Workers: 4},
		MaxTakeovers: 3,
		Run: func(ctx context.Context, task ShardTask) (*ShardOutcome, error) {
			if task.Index == 1 && task.Attempt < 2 {
				attempts.Add(1)
				return nil, fmt.Errorf("shard host died")
			}
			return okOutcome(task), nil
		},
	}
	out, err := c.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("dead shard failed %d times, want 2", got)
	}
	if out.Takeovers != 2 {
		t.Fatalf("takeovers = %d, want 2", out.Takeovers)
	}
	if out.Accounting.TotalApps != 8 {
		t.Fatalf("accounting = %+v", out.Accounting)
	}
}

func TestCoordinatorExhaustsTakeoverBudget(t *testing.T) {
	c := &Coordinator{
		Plan:         ShardPlan{TotalApps: 4, Shards: 2, Workers: 2},
		MaxTakeovers: 2,
		Run: func(ctx context.Context, task ShardTask) (*ShardOutcome, error) {
			if task.Index == 0 {
				return nil, errors.New("always dies")
			}
			return okOutcome(task), nil
		},
	}
	_, err := c.Execute(context.Background())
	if err == nil {
		t.Fatal("unkillable shard did not fail the campaign")
	}
	if want := "no takeover budget"; !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want mention of %q", err, want)
	}
}

func TestCoordinatorProbeKillsShard(t *testing.T) {
	var probed atomic.Int64
	c := &Coordinator{
		Plan:          ShardPlan{TotalApps: 2, Shards: 1, Workers: 1},
		MaxTakeovers:  1,
		ProbeInterval: 5 * time.Millisecond,
		Probe: func(index int) error {
			if probed.Add(1) > 2 {
				return errors.New("healthz timed out")
			}
			return nil
		},
		Run: func(ctx context.Context, task ShardTask) (*ShardOutcome, error) {
			if task.Attempt == 0 {
				// First attempt hangs until the probe watchdog cancels it.
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return okOutcome(task), nil
		},
	}
	out, err := c.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Takeovers != 1 {
		t.Fatalf("takeovers = %d, want 1", out.Takeovers)
	}
}

func TestCoordinatorStripsResumeSeries(t *testing.T) {
	c := &Coordinator{
		Plan: ShardPlan{TotalApps: 2, Shards: 1, Workers: 1},
		Run: func(ctx context.Context, task ShardTask) (*ShardOutcome, error) {
			out := okOutcome(task)
			out.Telemetry.Snapshot.Counters[obs.MResumeReplayed] = 5
			out.Telemetry.Snapshot.Counters[obs.MResumeRequeued] = 1
			return out, nil
		},
	}
	out, err := c.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out.Telemetry.Snapshot.Counters[obs.MResumeReplayed]; ok {
		t.Fatal("merged snapshot leaked the resume-replayed series")
	}
	if _, ok := out.Telemetry.Snapshot.Counters[obs.MResumeRequeued]; ok {
		t.Fatal("merged snapshot leaked the resume-requeued series")
	}
}

func TestShardOutcomeFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-001.json")
	in := &ShardOutcome{
		Index:      1,
		Range:      ShardRange{Lo: 5, Hi: 9},
		Accounting: Accounting{TotalApps: 4, Completed: 3, Failed: 1, Attempts: 6, Backoff: 2 * time.Second},
		Failures:   []RunFailure{{AppIndex: 7, Err: errors.New("emulator wedged"), Attempts: 3}},
		Quarantined: []QuarantinedApp{
			{AppIndex: 8, Attempts: 3, LastErr: errors.New("hook fault")},
		},
		Telemetry: obs.Bundle{Snapshot: coordSnapshot(4), Spans: []obs.SpanLine{{
			Trace: TraceID(6), Span: 1, Name: obs.SpanDispatch, Start: "1970-01-01T00:00:00Z", End: "1970-01-01T00:00:00Z",
			Attrs: map[string]string{"app": "6", "outcome": "run"},
		}}},
		Partial: []byte{0x4c, 0x53, 0x00, 0xff},
	}
	if err := WriteShardOutcome(path, in); err != nil {
		t.Fatal(err)
	}
	got, err := ReadShardOutcome(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != in.Index || got.Range != in.Range || got.Accounting != in.Accounting {
		t.Fatalf("round trip changed scalars: %+v", got)
	}
	if !reflect.DeepEqual(got.Partial, in.Partial) {
		t.Fatalf("partial bytes changed: %x vs %x", got.Partial, in.Partial)
	}
	if !reflect.DeepEqual(got.Telemetry.Spans, in.Telemetry.Spans) {
		t.Fatalf("spans changed: %+v", got.Telemetry.Spans)
	}
	if len(got.Failures) != 1 || got.Failures[0].AppIndex != 7 || got.Failures[0].Err.Error() != "emulator wedged" {
		t.Fatalf("failures changed: %+v", got.Failures)
	}
	if len(got.Quarantined) != 1 || got.Quarantined[0].LastErr.Error() != "hook fault" {
		t.Fatalf("quarantine changed: %+v", got.Quarantined)
	}
	if err := WriteShardOutcome(path, nil); err == nil {
		t.Fatal("nil outcome written")
	}
	if _, err := ReadShardOutcome(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file read")
	}
}
