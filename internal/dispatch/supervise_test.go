package dispatch

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// flakyShardRunner fails shard 1's first attempt, so every supervised
// campaign in these tests journals one takeover. Deterministic across
// incarnations: a resumed coordinator re-running attempt 0 fails the
// same way, which is exactly how a crashed shard host behaves.
func flakyShardRunner(calls *atomic.Int64) ShardRunner {
	return func(ctx context.Context, task ShardTask) (*ShardOutcome, error) {
		if calls != nil {
			calls.Add(1)
		}
		if task.Index == 1 && task.Attempt == 0 {
			return nil, errors.New("shard host died")
		}
		return okOutcome(task), nil
	}
}

// campaignEqual compares the fields a resumed campaign must reproduce
// exactly. Failures carry error values, which DeepEqual can't compare
// across a file round-trip, so they are checked by rendered text.
func campaignEqual(t *testing.T, got, want *CampaignOutcome) {
	t.Helper()
	if got.Accounting != want.Accounting {
		t.Fatalf("accounting diverged:\n got %+v\nwant %+v", got.Accounting, want.Accounting)
	}
	if got.Takeovers != want.Takeovers {
		t.Fatalf("takeovers = %d, want %d", got.Takeovers, want.Takeovers)
	}
	if !reflect.DeepEqual(got.Telemetry, want.Telemetry) {
		t.Fatalf("telemetry diverged:\n got %+v\nwant %+v", got.Telemetry, want.Telemetry)
	}
	if !reflect.DeepEqual(got.Partials, want.Partials) {
		t.Fatalf("partials diverged: %x vs %x", got.Partials, want.Partials)
	}
	if len(got.Failures) != len(want.Failures) {
		t.Fatalf("failures = %d, want %d", len(got.Failures), len(want.Failures))
	}
	for i := range got.Failures {
		g, w := got.Failures[i], want.Failures[i]
		if g.AppIndex != w.AppIndex || g.Attempts != w.Attempts || g.Err.Error() != w.Err.Error() {
			t.Fatalf("failure %d diverged: %+v vs %+v", i, g, w)
		}
	}
}

func supervisedCoordinator(dir string, run ShardRunner) *Coordinator {
	return &Coordinator{
		Plan:         ShardPlan{TotalApps: 10, Shards: 3, Workers: 6},
		Run:          run,
		MaxTakeovers: 1,
		WAL:          filepath.Join(dir, "campaign.wal"),
		Fingerprint:  "fp-test",
	}
}

func TestSupervisedCampaignMatchesUnsupervised(t *testing.T) {
	plain := &Coordinator{
		Plan:         ShardPlan{TotalApps: 10, Shards: 3, Workers: 6},
		Run:          flakyShardRunner(nil),
		MaxTakeovers: 1,
	}
	want, err := plain.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	c := supervisedCoordinator(dir, flakyShardRunner(nil))
	got, err := c.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	campaignEqual(t, got, want)

	data, err := os.ReadFile(c.WAL)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ReplayWAL(data)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, r := range recs {
		counts[r.Type]++
	}
	// 1 header, 4 attempts (shard 1 runs twice), 1 takeover, 3 seals, done.
	want2 := map[string]int{"campaign": 1, "attempt": 4, "takeover": 1, "sealed": 3, "done": 1}
	if !reflect.DeepEqual(counts, want2) {
		t.Fatalf("WAL record counts = %v, want %v", counts, want2)
	}
	if recs[0].Fingerprint != "fp-test" || recs[0].Apps != 10 || recs[0].Shards != 3 {
		t.Fatalf("WAL header = %+v", recs[0])
	}
}

// TestSupervisedCrashAtEveryWALRecordBoundary is the kill sweep: the
// coordinator is crashed after exactly k durable WAL records for every
// k inside the campaign, resumed, and the resumed result must be
// identical to the uninterrupted run — including the takeover budget,
// which a resume must not refill.
func TestSupervisedCrashAtEveryWALRecordBoundary(t *testing.T) {
	base := supervisedCoordinator(t.TempDir(), flakyShardRunner(nil))
	want, err := base.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	baseData, err := os.ReadFile(base.WAL)
	if err != nil {
		t.Fatal(err)
	}
	baseRecs, err := ReplayWAL(baseData)
	if err != nil {
		t.Fatal(err)
	}
	total := len(baseRecs)
	if total < 8 {
		t.Fatalf("baseline WAL only has %d records; sweep needs a real campaign", total)
	}

	for k := 1; k < total; k++ {
		k := k
		t.Run(fmt.Sprintf("crash-after-%d", k), func(t *testing.T) {
			dir := t.TempDir()
			crash := supervisedCoordinator(dir, flakyShardRunner(nil))
			crash.CrashAfterWALRecords = k
			if _, err := crash.Execute(context.Background()); !errors.Is(err, errWALCrash) {
				t.Fatalf("crash-after-%d: err = %v, want injected crash", k, err)
			}
			data, err := os.ReadFile(crash.WAL)
			if err != nil {
				t.Fatal(err)
			}
			if recs, err := ReplayWAL(data); err != nil || len(recs) != k {
				t.Fatalf("durable prefix = %d records (err %v), want exactly %d", len(recs), err, k)
			}

			var calls atomic.Int64
			res := supervisedCoordinator(dir, flakyShardRunner(&calls))
			res.Resume = true
			got, err := res.Execute(context.Background())
			if err != nil {
				t.Fatalf("resume after crash-at-%d: %v", k, err)
			}
			campaignEqual(t, got, want)
		})
	}
}

func TestSupervisedResumeSkipsSealedShards(t *testing.T) {
	dir := t.TempDir()
	c := supervisedCoordinator(dir, flakyShardRunner(nil))
	want, err := c.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// The campaign is done: a resume must verify the seals and re-merge
	// without launching a single shard.
	var calls atomic.Int64
	r := supervisedCoordinator(dir, flakyShardRunner(&calls))
	r.Resume = true
	got, err := r.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Fatalf("resume of a finished campaign launched %d shard attempts", calls.Load())
	}
	campaignEqual(t, got, want)
}

func TestSupervisedResumeRejectsWrongCampaign(t *testing.T) {
	dir := t.TempDir()
	c := supervisedCoordinator(dir, flakyShardRunner(nil))
	if _, err := c.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}

	r := supervisedCoordinator(dir, flakyShardRunner(nil))
	r.Resume = true
	r.Fingerprint = "fp-other"
	if _, err := r.Execute(context.Background()); err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("resume under a different fingerprint: err = %v", err)
	}
}

func TestSupervisedTamperedSealRerunsShard(t *testing.T) {
	dir := t.TempDir()
	c := supervisedCoordinator(dir, flakyShardRunner(nil))
	want, err := c.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt shard 2's sealed outcome on disk. The WAL's recorded sha no
	// longer matches, so a resume must distrust the file and re-run the
	// shard — without charging takeover budget, which is already spent.
	sealed := outcomePath(c.WAL+".outcomes", 2)
	data, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(sealed, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	r := supervisedCoordinator(dir, flakyShardRunner(&calls))
	r.Resume = true
	got, err := r.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("tampered seal re-ran %d attempts, want exactly 1 (shard 2 only)", calls.Load())
	}
	campaignEqual(t, got, want)
}

func TestSupervisedTornWALTailResumes(t *testing.T) {
	dir := t.TempDir()
	crash := supervisedCoordinator(dir, flakyShardRunner(nil))
	crash.CrashAfterWALRecords = 3
	if _, err := crash.Execute(context.Background()); !errors.Is(err, errWALCrash) {
		t.Fatalf("err = %v, want injected crash", err)
	}

	// A SIGKILLed coordinator can die mid-append: fake the torn frame a
	// real kill leaves (a length header promising more bytes than exist).
	f, err := os.OpenFile(crash.WAL, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	res := supervisedCoordinator(dir, flakyShardRunner(nil))
	res.Resume = true
	got, err := res.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	base := supervisedCoordinator(t.TempDir(), flakyShardRunner(nil))
	want, err := base.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	campaignEqual(t, got, want)
}

// TestConsumeTakeoverRaceExactBudget hammers the budget CAS from many
// goroutines: exactly MaxTakeovers claims may succeed, never more, no
// matter how the scheduler interleaves them. Run under -race.
func TestConsumeTakeoverRaceExactBudget(t *testing.T) {
	const budget = 64
	const goroutines = 32
	var used atomic.Int64
	var granted atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for consumeTakeover(&used, budget) {
				granted.Add(1)
			}
			// The budget is exhausted for THIS goroutine's observation;
			// one more call must still refuse.
			if consumeTakeover(&used, budget) {
				granted.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if granted.Load() != budget {
		t.Fatalf("granted %d takeovers from a budget of %d", granted.Load(), budget)
	}
	if used.Load() != budget {
		t.Fatalf("budget counter = %d, want %d", used.Load(), budget)
	}
}

// TestCoordinatorProbeHysteresis: isolated probe failures below the
// strike threshold never kill a shard; only a consecutive run does.
func TestCoordinatorProbeHysteresis(t *testing.T) {
	var probes atomic.Int64
	c := &Coordinator{
		Plan:          ShardPlan{TotalApps: 2, Shards: 1, Workers: 1},
		ProbeInterval: 2 * time.Millisecond,
		ProbeStrikes:  3,
		// Every third probe fails: strikes reset on each success, so the
		// threshold is never reached and the shard must survive.
		Probe: func(index int) error {
			if probes.Add(1)%3 == 0 {
				return errors.New("transient timeout")
			}
			return nil
		},
		Run: func(ctx context.Context, task ShardTask) (*ShardOutcome, error) {
			select {
			case <-time.After(50 * time.Millisecond):
				return okOutcome(task), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}
	out, err := c.Execute(context.Background())
	if err != nil {
		t.Fatalf("flapping probe killed the shard: %v", err)
	}
	if out.Takeovers != 0 {
		t.Fatalf("takeovers = %d, want 0", out.Takeovers)
	}
}

// TestCoordinatorProbeStartupGrace: a shard whose probe endpoint never
// came up yet is starting, not dead — strikes only count once the shard
// has answered at least one probe.
func TestCoordinatorProbeStartupGrace(t *testing.T) {
	c := &Coordinator{
		Plan:          ShardPlan{TotalApps: 2, Shards: 1, Workers: 1},
		ProbeInterval: 2 * time.Millisecond,
		ProbeStrikes:  1,
		Probe: func(index int) error {
			return errors.New("connection refused")
		},
		Run: func(ctx context.Context, task ShardTask) (*ShardOutcome, error) {
			select {
			case <-time.After(40 * time.Millisecond):
				return okOutcome(task), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}
	out, err := c.Execute(context.Background())
	if err != nil {
		t.Fatalf("never-answered probe killed a starting shard: %v", err)
	}
	if out.Takeovers != 0 {
		t.Fatalf("takeovers = %d, want 0", out.Takeovers)
	}
}

// TestCoordinatorStallDeadlineKillsStuckShard: a shard that answers its
// health probe but whose progress watermark never advances is declared
// dead by the stall deadline and taken over.
func TestCoordinatorStallDeadlineKillsStuckShard(t *testing.T) {
	c := &Coordinator{
		Plan:          ShardPlan{TotalApps: 2, Shards: 1, Workers: 1},
		MaxTakeovers:  1,
		ProbeInterval: 2 * time.Millisecond,
		Probe:         func(index int) error { return nil }, // healthz lies
		Progress:      func(index int) (int64, error) { return 5, nil },
		StallDeadline: 20 * time.Millisecond,
		Run: func(ctx context.Context, task ShardTask) (*ShardOutcome, error) {
			if task.Attempt == 0 {
				<-ctx.Done() // deadlocked shard: alive, no progress
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
		t.Fatalf("takeovers = %d, want 1 (stalled shard taken over)", out.Takeovers)
	}
}

// TestCoordinatorStallDeadlineSparesAdvancingShard: as long as the
// watermark keeps moving, a slow shard is slow, not stalled.
func TestCoordinatorStallDeadlineSparesAdvancingShard(t *testing.T) {
	var mark atomic.Int64
	c := &Coordinator{
		Plan:          ShardPlan{TotalApps: 2, Shards: 1, Workers: 1},
		ProbeInterval: 2 * time.Millisecond,
		Progress:      func(index int) (int64, error) { return mark.Add(1), nil },
		StallDeadline: 25 * time.Millisecond,
		Run: func(ctx context.Context, task ShardTask) (*ShardOutcome, error) {
			select {
			case <-time.After(100 * time.Millisecond):
				return okOutcome(task), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}
	out, err := c.Execute(context.Background())
	if err != nil {
		t.Fatalf("advancing shard declared stalled: %v", err)
	}
	if out.Takeovers != 0 {
		t.Fatalf("takeovers = %d, want 0", out.Takeovers)
	}
}
