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
