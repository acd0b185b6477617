package dispatch_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"libspector/internal/dispatch"
	"libspector/internal/dispatch/dispatchtest"
	"libspector/internal/faults"
)

// newInjector builds an injector or fails the test.
func newInjector(t testing.TB, cfg faults.Config) *faults.Injector {
	t.Helper()
	inj, err := faults.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestFaultClassesQuarantinePoisonApps drives each fault class through the
// full failure path: every app faults on every attempt (rate 1, poison 1),
// so with ContinueOnError the fleet must quarantine each one after
// exhausting the retry budget — never lose it silently, never abort.
func TestFaultClassesQuarantinePoisonApps(t *testing.T) {
	for _, class := range faults.AllClasses {
		t.Run(class.String(), func(t *testing.T) {
			const apps = 6
			world := smallWorld(t, 73, apps)
			cfg := dispatch.Config{
				Workers:         3,
				Emulator:        shortOpts(73),
				BaseSeed:        73,
				Attributor:      newAttributor(t, 73, world),
				ContinueOnError: true,
				MaxAttempts:     2,
				RetryBackoff:    time.Second,
				RunTimeout:      time.Second,
				Faults: newInjector(t, faults.Config{
					Seed: 73, Rate: 1, PoisonRate: 1, Classes: []faults.Class{class},
				}),
			}
			res, _, err := dispatchtest.Run(world, world.Resolver, cfg)
			if err != nil {
				t.Fatalf("poisoned ContinueOnError fleet aborted: %v", err)
			}
			acct := res.Accounting
			if acct.Failed != 0 || acct.NotRun != 0 {
				t.Fatalf("accounting lists %d failed, %d not run; want quarantine only", acct.Failed, acct.NotRun)
			}
			if got := acct.Completed + acct.SkippedARMOnly + acct.Quarantined; got != apps {
				t.Fatalf("accounted for %d of %d apps", got, apps)
			}
			if acct.Quarantined == 0 {
				t.Fatal("poison faults produced no quarantines")
			}
			for _, q := range res.Quarantined {
				if q.Attempts != 2 {
					t.Errorf("app %d quarantined after %d attempts, want 2", q.AppIndex, q.Attempts)
				}
				if q.LastErr == nil {
					t.Errorf("app %d quarantined without a last error", q.AppIndex)
				}
			}
			// Abort and stall surface the injected sentinel directly; the
			// other classes fail through their detection path (torn pcap,
			// sent-vs-delivered gap, hook-error count).
			if class == faults.EmulatorAbort || class == faults.StallRun {
				for _, q := range res.Quarantined {
					if !errors.Is(q.LastErr, faults.ErrInjected) {
						t.Errorf("app %d last error does not wrap ErrInjected: %v", q.AppIndex, q.LastErr)
					}
				}
			}
		})
	}
}

// TestFaultTransientRecoveryMatchesCleanRun is the core retry guarantee:
// with transient faults on every app (rate 1, poison 0) and one retry, the
// fleet must complete every analyzable app and produce results identical to
// a fleet that never faulted — retries may not perturb determinism.
func TestFaultTransientRecoveryMatchesCleanRun(t *testing.T) {
	const apps = 8
	world := smallWorld(t, 79, apps)
	base := dispatch.Config{
		Workers:    3,
		Emulator:   shortOpts(79),
		BaseSeed:   79,
		Attributor: newAttributor(t, 79, world),
	}
	_, clean, err := dispatchtest.Run(world, world.Resolver, base)
	if err != nil {
		t.Fatal(err)
	}

	faulty := base
	faulty.ContinueOnError = true
	faulty.MaxAttempts = 2
	faulty.RetryBackoff = 250 * time.Millisecond
	faulty.RunTimeout = 2 * time.Second
	faulty.Faults = newInjector(t, faults.Config{Seed: 79, Rate: 1, PoisonRate: 0})
	res, runs, err := dispatchtest.Run(world, world.Resolver, faulty)
	if err != nil {
		t.Fatalf("transient-fault fleet failed: %v", err)
	}
	acct := res.Accounting
	if acct.Quarantined != 0 || acct.Failed != 0 || acct.NotRun != 0 {
		t.Fatalf("transient faults should all recover: %+v", acct)
	}
	if acct.Retried == 0 {
		t.Fatal("no app recovered through a retry")
	}
	if acct.Coverage() != 1 {
		t.Fatalf("coverage = %v, want 1", acct.Coverage())
	}
	if len(runs) != len(clean) {
		t.Fatalf("faulted fleet completed %d runs, clean %d", len(runs), len(clean))
	}
	if !reflect.DeepEqual(runs, clean) {
		t.Error("retried results differ from the never-faulted fleet")
	}
}

// TestFaultRetryDoesNotPolluteCollector guards the collector reset
// between attempts: a failed attempt puts datagrams in the collector, and
// unless its drain forgets them the retried run would attribute from a
// polluted report set (surfacing as unmatched reports). A transient-faulted
// fleet must match a clean fleet exactly.
func TestFaultRetryDoesNotPolluteCollector(t *testing.T) {
	const apps = 8
	world := smallWorld(t, 107, apps)
	base := dispatch.Config{
		Workers:    3,
		Emulator:   shortOpts(107),
		BaseSeed:   107,
		Attributor: newAttributor(t, 107, world),
	}
	_, clean, err := dispatchtest.Run(world, world.Resolver, base)
	if err != nil {
		t.Fatal(err)
	}

	faulty := base
	faulty.ContinueOnError = true
	faulty.MaxAttempts = 3
	faulty.RetryBackoff = 250 * time.Millisecond
	// Abort and truncate both ship datagrams before the attempt fails, so
	// every retry starts with attempt-1 residue in the collector.
	faulty.Faults = newInjector(t, faults.Config{
		Seed: 107, Rate: 1, PoisonRate: 0,
		Classes: []faults.Class{faults.EmulatorAbort, faults.CaptureTruncate},
	})
	res, runs, err := dispatchtest.Run(world, world.Resolver, faulty)
	if err != nil {
		t.Fatalf("transient-fault collector fleet failed: %v", err)
	}
	acct := res.Accounting
	if acct.Quarantined != 0 || acct.Failed != 0 || acct.NotRun != 0 {
		t.Fatalf("transient faults should all recover: %+v", acct)
	}
	if acct.Retried == 0 {
		t.Fatal("no app recovered through a retry")
	}
	for _, run := range runs {
		if run.Join.UnmatchedReports != 0 || run.Join.ChecksumMismatch != 0 {
			t.Errorf("%s: retried run joined against polluted reports: %+v", run.AppPackage, run.Join)
		}
	}
	if !reflect.DeepEqual(runs, clean) {
		t.Error("retried collector results differ from the never-faulted fleet")
	}
}

// TestFaultAccountingNoSilentLoss is the acceptance scenario: a sizable
// corpus at a 20% fault rate with retries must account for every single
// app — completed, ABI-skipped, or quarantined — with nothing lost and
// nothing left unexplained.
func TestFaultAccountingNoSilentLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("500-app fault campaign skipped in -short mode")
	}
	const apps = 500
	world := smallWorld(t, 83, apps)
	cfg := dispatch.Config{
		// More workers than cores: stalled attempts spend their RunTimeout
		// blocked, so overlapping them keeps the test's wall clock down.
		Workers:         8,
		Emulator:        shortOpts(83),
		BaseSeed:        83,
		Attributor:      newAttributor(t, 83, world),
		ContinueOnError: true,
		MaxAttempts:     3,
		RetryBackoff:    time.Second,
		// Stall faults are excluded so no attempt depends on a real-time
		// deadline: under -race on a loaded machine a tight RunTimeout
		// would spuriously kill legitimate runs and skew the ledger. The
		// stall/timeout path has its own table-driven coverage above.
		Faults: newInjector(t, faults.Config{
			Seed: 83, Rate: 0.2, PoisonRate: 0.25,
			Classes: []faults.Class{faults.EmulatorAbort, faults.CaptureTruncate, faults.DatagramDrop, faults.HookFault},
		}),
	}
	outcomes := make(map[int]dispatch.EventKind)
	res, _, err := dispatchtest.Run(world, world.Resolver, cfg, dispatch.SinkFunc(func(ev dispatch.RunEvent) error {
		if ev.Kind == dispatch.EventSummary {
			return nil
		}
		if prev, dup := outcomes[ev.AppIndex]; dup {
			t.Errorf("app %d reported twice: %v then %v", ev.AppIndex, prev, ev.Kind)
		}
		outcomes[ev.AppIndex] = ev.Kind
		return nil
	}))
	if err != nil {
		t.Fatalf("degraded fleet aborted: %v", err)
	}
	if len(outcomes) != apps {
		t.Fatalf("only %d of %d apps produced an outcome event", len(outcomes), apps)
	}
	acct := res.Accounting
	if got := acct.Completed + acct.SkippedARMOnly + acct.Quarantined + acct.Failed + acct.NotRun; got != apps {
		t.Fatalf("ledger sums to %d, want %d: %+v", got, apps, acct)
	}
	if acct.Failed != 0 || acct.NotRun != 0 {
		t.Fatalf("uncancelled ContinueOnError fleet reports %d failed, %d not run", acct.Failed, acct.NotRun)
	}
	if acct.Quarantined == 0 || acct.Retried == 0 {
		t.Fatalf("20%% fault rate produced no quarantines (%d) or retries (%d)", acct.Quarantined, acct.Retried)
	}
	for _, q := range res.Quarantined {
		if q.Attempts != 3 || q.LastErr == nil {
			t.Errorf("quarantine record incomplete: %+v", q)
		}
		if outcomes[q.AppIndex] != dispatch.EventQuarantine {
			t.Errorf("app %d quarantined in summary but streamed as %v", q.AppIndex, outcomes[q.AppIndex])
		}
	}
	if cov := acct.Coverage(); cov <= 0.8 || cov >= 1 {
		t.Errorf("coverage %v outside the expected degraded band", cov)
	}
}

// TestFaultBackoffDeterministicOnVirtualClock: the backoff total is charged
// to the ledger, never slept, and must be identical across same-seed
// fleets.
func TestFaultBackoffDeterministicOnVirtualClock(t *testing.T) {
	run := func() dispatch.Accounting {
		world := smallWorld(t, 89, 6)
		cfg := dispatch.Config{
			Workers:         2,
			Emulator:        shortOpts(89),
			BaseSeed:        89,
			Attributor:      newAttributor(t, 89, world),
			ContinueOnError: true,
			MaxAttempts:     2,
			RetryBackoff:    time.Second,
			Faults: newInjector(t, faults.Config{
				Seed: 89, Rate: 1, PoisonRate: 0,
				Classes: []faults.Class{faults.EmulatorAbort},
			}),
		}
		start := time.Now()
		res, _, err := dispatchtest.Run(world, world.Resolver, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Seconds of backoff were charged; none of it on wall time.
		if wall := time.Since(start); wall > 5*time.Second {
			t.Fatalf("virtual backoff took %s of wall time", wall)
		}
		return res.Accounting
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed accounting differs:\n%+v\n%+v", a, b)
	}
	if a.Backoff == 0 || a.Backoff != time.Duration(a.Retried)*time.Second {
		t.Errorf("backoff %s does not match %d single-retry charges", a.Backoff, a.Retried)
	}
}

// TestStreamRejectsStallFaultsWithoutTimeout: a config that could hang a
// worker forever is refused up front.
func TestStreamRejectsStallFaultsWithoutTimeout(t *testing.T) {
	world := smallWorld(t, 97, 4)
	_, err := dispatch.Stream(context.Background(), world, world.Resolver, dispatch.Config{
		Emulator:   shortOpts(97),
		BaseSeed:   97,
		Attributor: newAttributor(t, 97, world),
		Faults:     newInjector(t, faults.Config{Seed: 97, Rate: 0.5}),
	})
	if err == nil || !strings.Contains(err.Error(), "stall-run") {
		t.Fatalf("stall faults without RunTimeout accepted: %v", err)
	}
}

// TestRunTimeoutFailsSingleAttemptStall: without retries or
// ContinueOnError, a stalled run is reclaimed by the deadline and surfaces
// as an ordinary fail-fast fleet error.
func TestRunTimeoutFailsSingleAttemptStall(t *testing.T) {
	world := smallWorld(t, 103, 4)
	_, _, err := dispatchtest.Run(world, world.Resolver, dispatch.Config{
		Workers:    2,
		Emulator:   shortOpts(103),
		BaseSeed:   103,
		Attributor: newAttributor(t, 103, world),
		RunTimeout: 200 * time.Millisecond,
		Faults: newInjector(t, faults.Config{
			Seed: 103, Rate: 1, PoisonRate: 1,
			Classes: []faults.Class{faults.StallRun},
		}),
	})
	if err == nil {
		t.Fatal("stalled fail-fast fleet reported success")
	}
	if !errors.Is(err, faults.ErrInjected) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("unexpected stall error: %v", err)
	}
}
