package dispatch_test

import (
	"context"
	"errors"
	"testing"

	"libspector/internal/dispatch"
	"libspector/internal/dispatch/dispatchtest"
	"libspector/internal/synth"
)

// drain collects every event until the stream closes, returning the per-app
// events and the closing summary event.
func drain(t *testing.T, events <-chan dispatch.RunEvent) ([]dispatch.RunEvent, *dispatch.RunEvent) {
	t.Helper()
	var perApp []dispatch.RunEvent
	var summary *dispatch.RunEvent
	for ev := range events {
		if ev.Kind == dispatch.EventSummary {
			if summary != nil {
				t.Fatal("stream emitted two summaries")
			}
			summary = &ev
			continue
		}
		if summary != nil {
			t.Fatal("per-app event after the summary")
		}
		perApp = append(perApp, ev)
	}
	return perApp, summary
}

func TestStreamEmitsEveryAppOnceThenSummary(t *testing.T) {
	world := smallWorld(t, 61, 10)
	events, err := dispatch.Stream(context.Background(), world, world.Resolver, dispatch.Config{
		Workers:    3,
		Emulator:   shortOpts(61),
		BaseSeed:   61,
		Attributor: newAttributor(t, 61, world),
	})
	if err != nil {
		t.Fatal(err)
	}
	perApp, summary := drain(t, events)
	if summary == nil {
		t.Fatal("stream closed without a summary")
	}
	if summary.Err != nil {
		t.Fatalf("clean stream reported error: %v", summary.Err)
	}
	if len(perApp) != 10 {
		t.Fatalf("got %d per-app events, want 10", len(perApp))
	}
	seen := make(map[int]bool)
	for _, ev := range perApp {
		if seen[ev.AppIndex] {
			t.Errorf("app %d emitted twice", ev.AppIndex)
		}
		seen[ev.AppIndex] = true
		if ev.Kind == dispatch.EventRun && ev.Run == nil {
			t.Errorf("app %d: run event without run", ev.AppIndex)
		}
	}
	if acct := summary.Summary.Accounting; acct.Completed+acct.SkippedARMOnly != 10 {
		t.Errorf("summary %d completed + %d skipped != 10", acct.Completed, acct.SkippedARMOnly)
	}
	if summary.Summary.Elapsed <= 0 {
		t.Error("summary has no elapsed time")
	}
}

// TestStreamCancelStopsPromptly cancels mid-stream and checks the fleet
// stops within the promised bound: each worker finishes at most its one
// in-flight app, so per-app events ≤ delivered-before-cancel + worker
// count + the channel's buffered backlog (also = worker count).
func TestStreamCancelStopsPromptly(t *testing.T) {
	const apps, workers = 40, 2
	world := smallWorld(t, 63, apps)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events, err := dispatch.Stream(ctx, world, world.Resolver, dispatch.Config{
		Workers:    workers,
		Emulator:   shortOpts(63),
		BaseSeed:   63,
		Attributor: newAttributor(t, 63, world),
	})
	if err != nil {
		t.Fatal(err)
	}
	var perApp int
	var summary *dispatch.RunEvent
	for ev := range events {
		if ev.Kind == dispatch.EventSummary {
			summary = &ev
			continue
		}
		perApp++
		cancel() // cancel on the very first per-app event
	}
	if summary == nil {
		t.Fatal("cancelled stream still must close with a summary for draining consumers")
	}
	if !errors.Is(summary.Err, context.Canceled) {
		t.Errorf("summary error = %v, want context.Canceled", summary.Err)
	}
	// 1 observed + ≤workers in flight + ≤workers buffered.
	if bound := 1 + 2*workers; perApp > bound {
		t.Errorf("cancelled fleet emitted %d per-app events, want ≤ %d", perApp, bound)
	}
	if perApp >= apps {
		t.Error("cancellation did not stop the fleet early")
	}
}

// TestStreamFailFastCancelsRemaining checks strict mode: the first failure
// aborts the stream, leaving the rest of the corpus unvisited.
func TestStreamFailFastCancelsRemaining(t *testing.T) {
	const apps = 30
	world := smallWorld(t, 65, apps)
	src := &failingSource{World: world, failIdx: 1}
	events, err := dispatch.Stream(context.Background(), src, world.Resolver, dispatch.Config{
		Workers:    2,
		Emulator:   shortOpts(65),
		BaseSeed:   65,
		Attributor: newAttributor(t, 65, world),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, drainErr := dispatch.Drain(events)
	if drainErr == nil {
		t.Fatal("fail-fast stream reported no error")
	}
	if !errors.Is(drainErr, errFailInjected) {
		t.Errorf("error = %v, want the injected failure", drainErr)
	}
	if total := res.Accounting.Completed + res.Accounting.SkippedARMOnly; total >= apps-1 {
		t.Errorf("fail-fast fleet still visited %d of %d apps", total, apps)
	}
}

// multiFailSource fails generation for a set of indices.
type multiFailSource struct {
	*synth.World
	fail map[int]bool
}

func (m *multiFailSource) GenerateApp(i int) (*synth.App, error) {
	if m.fail[i] {
		return nil, errFailInjected
	}
	return m.World.GenerateApp(i)
}

// TestStreamContinueOnErrorDeterministicFailures checks Failures ordering
// is by app index regardless of worker interleaving.
func TestStreamContinueOnErrorDeterministicFailures(t *testing.T) {
	fleet := func() []int {
		world := smallWorld(t, 67, 8)
		src := &multiFailSource{World: world, fail: map[int]bool{2: true, 5: true}}
		res, _, err := dispatchtest.Run(src, world.Resolver, dispatch.Config{
			Workers:         4,
			Emulator:        shortOpts(67),
			BaseSeed:        67,
			Attributor:      newAttributor(t, 67, world),
			ContinueOnError: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		idx := make([]int, 0, len(res.Failures))
		for _, f := range res.Failures {
			idx = append(idx, f.AppIndex)
			if !errors.Is(f.Err, errFailInjected) {
				t.Errorf("failure %d cause = %v", f.AppIndex, f.Err)
			}
		}
		return idx
	}
	a, b := fleet(), fleet()
	want := []int{2, 5}
	for _, got := range [][]int{a, b} {
		if len(got) != len(want) {
			t.Fatalf("failures = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("failures = %v, want %v", got, want)
			}
		}
	}
}

// TestDrainForwardsToSinks checks sink fan-out, the summary's Result, and
// sink-error reporting.
func TestDrainForwardsToSinks(t *testing.T) {
	world := smallWorld(t, 69, 6)
	cfg := dispatch.Config{
		Emulator:   shortOpts(69),
		BaseSeed:   69,
		Attributor: newAttributor(t, 69, world),
	}
	var kinds []dispatch.EventKind
	var summary *dispatch.Result
	events, err := dispatch.Stream(context.Background(), world, world.Resolver, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dispatch.Drain(events, dispatch.SinkFunc(func(ev dispatch.RunEvent) error {
		kinds = append(kinds, ev.Kind)
		if ev.Kind == dispatch.EventSummary {
			summary = ev.Summary
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if acct := res.Accounting; len(kinds) != acct.Completed+acct.SkippedARMOnly+1 {
		t.Errorf("sink saw %d events for %d runs + %d skips + summary",
			len(kinds), acct.Completed, acct.SkippedARMOnly)
	}
	if kinds[len(kinds)-1] != dispatch.EventSummary {
		t.Error("sink did not see the summary last")
	}
	if summary != res {
		t.Error("Drain did not return the Result the summary event carried")
	}

	// A sink error surfaces from Drain without abandoning the drain.
	sinkErr := errors.New("sink rejected event")
	events, err = dispatch.Stream(context.Background(), world, world.Resolver, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err = dispatch.Drain(events, dispatch.SinkFunc(func(dispatch.RunEvent) error { return sinkErr }))
	if !errors.Is(err, sinkErr) {
		t.Errorf("drain error = %v, want the sink error", err)
	}
	if res == nil || res.Accounting.Completed+res.Accounting.SkippedARMOnly != 6 {
		t.Error("drain abandoned the stream on a sink error")
	}
}
