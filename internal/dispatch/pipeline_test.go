package dispatch_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"libspector/internal/attribution"
	"libspector/internal/dispatch"
	"libspector/internal/dispatch/dispatchtest"
	"libspector/internal/emulator"
	"libspector/internal/synth"
	"libspector/internal/vtclient"
)

// shortOpts keeps fleet tests fast.
func shortOpts(seed uint64) emulator.Options {
	opts := emulator.DefaultOptions(seed)
	opts.Monkey.Events = 120
	return opts
}

func smallWorld(t testing.TB, seed uint64, apps int) *synth.World {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Seed = seed
	cfg.NumApps = apps
	world, err := synth.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return world
}

func newAttributor(t testing.TB, seed uint64, world *synth.World) *attribution.Attributor {
	t.Helper()
	svc, err := vtclient.NewService(vtclient.NewOracle(seed, world.DomainTruth()))
	if err != nil {
		t.Fatal(err)
	}
	return attribution.NewAttributor(svc)
}

func TestFleetBasic(t *testing.T) {
	world := smallWorld(t, 31, 12)
	res, runs, err := dispatchtest.Run(world, world.Resolver, dispatch.Config{
		Emulator:   shortOpts(31),
		BaseSeed:   31,
		Attributor: newAttributor(t, 31, world),
	})
	if err != nil {
		t.Fatal(err)
	}
	if acct := res.Accounting; len(runs) != acct.Completed || acct.Completed+acct.SkippedARMOnly != 12 {
		t.Errorf("%d runs, %d completed + %d skipped != 12", len(runs), acct.Completed, acct.SkippedARMOnly)
	}
	for _, run := range runs {
		if run.AppSHA == "" || run.AppPackage == "" {
			t.Error("run missing identity")
		}
		if run.Coverage.TotalMethods == 0 {
			t.Error("run missing coverage")
		}
		if run.Join.UnmatchedReports != 0 || run.Join.ChecksumMismatch != 0 {
			t.Errorf("join anomalies for %s: %+v", run.AppPackage, run.Join)
		}
	}
}

// TestFleetCollectorTotals: every report of a clean fleet reaches
// attribution through the real UDP collector, none of them malformed.
func TestFleetCollectorTotals(t *testing.T) {
	world := smallWorld(t, 35, 8)
	res, _, err := dispatchtest.Run(world, world.Resolver, dispatch.Config{
		Emulator:   shortOpts(35),
		BaseSeed:   35,
		Attributor: newAttributor(t, 35, world),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CollectorMalformed != 0 {
		t.Errorf("collector saw %d malformed datagrams", res.CollectorMalformed)
	}
	if res.CollectorReports == 0 {
		t.Error("collector received no reports")
	}
}

func TestStreamValidation(t *testing.T) {
	world := smallWorld(t, 36, 2)
	ctx := context.Background()
	if _, err := dispatch.Stream(ctx, nil, world.Resolver, dispatch.Config{Attributor: newAttributor(t, 36, world)}); err == nil {
		t.Error("nil source should fail")
	}
	if _, err := dispatch.Stream(ctx, world, nil, dispatch.Config{Attributor: newAttributor(t, 36, world)}); err == nil {
		t.Error("nil resolver should fail")
	}
	if _, err := dispatch.Stream(ctx, world, world.Resolver, dispatch.Config{}); err == nil {
		t.Error("missing attributor should fail")
	}
}

// failingSource wraps a world and fails generation for one index.
type failingSource struct {
	*synth.World
	failIdx int
}

func (f *failingSource) GenerateApp(i int) (*synth.App, error) {
	if i == f.failIdx {
		return nil, errFailInjected
	}
	return f.World.GenerateApp(i)
}

var errFailInjected = fmt.Errorf("injected generation failure")

func TestFleetContinueOnError(t *testing.T) {
	world := smallWorld(t, 39, 6)
	src := &failingSource{World: world, failIdx: 2}
	cfg := dispatch.Config{
		Emulator:        shortOpts(39),
		BaseSeed:        39,
		Attributor:      newAttributor(t, 39, world),
		ContinueOnError: true,
	}
	res, _, err := dispatchtest.Run(src, world.Resolver, cfg)
	if err != nil {
		t.Fatalf("ContinueOnError fleet aborted: %v", err)
	}
	if len(res.Failures) != 1 || res.Failures[0].AppIndex != 2 {
		t.Errorf("failures = %+v, want app 2", res.Failures)
	}
	if !errors.Is(res.Failures[0].Err, errFailInjected) {
		t.Errorf("failure cause = %v", res.Failures[0].Err)
	}
	if acct := res.Accounting; acct.Completed+acct.SkippedARMOnly != 5 {
		t.Errorf("completed %d + skipped %d != 5", acct.Completed, acct.SkippedARMOnly)
	}

	// Without ContinueOnError the same failure aborts the fleet.
	cfg.ContinueOnError = false
	if _, _, err := dispatchtest.Run(src, world.Resolver, cfg); err == nil {
		t.Error("strict mode should abort on failure")
	}
}
