package dispatch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"libspector/internal/analysis"
	"libspector/internal/apk"
	"libspector/internal/attribution"
	"libspector/internal/dex"
	"libspector/internal/dispatch"
	"libspector/internal/libradar"
	"libspector/internal/synth"
	"libspector/internal/vtclient"
)

// campaign is one fleet's stream folded as a campaign folds it: a LibRadar
// detector observing every app and an analysis accumulator folding every
// run, with every event kept.
type campaign struct {
	world    *synth.World
	detector *libradar.Detector
	acc      *analysis.Accumulator
	cfg      dispatch.Config
	events   []dispatch.RunEvent
}

func newCampaign(t testing.TB, seed uint64, apps, events int) *campaign {
	t.Helper()
	world := smallWorld(t, seed, apps)
	detector := libradar.SeededDetector()
	for prefix, cat := range world.KnownLibraryDB() {
		if err := detector.AddKnownLibrary(prefix, cat); err != nil {
			t.Fatal(err)
		}
	}
	svc, err := vtclient.NewService(vtclient.NewOracle(seed, world.DomainTruth()))
	if err != nil {
		t.Fatal(err)
	}
	acc, err := analysis.NewAccumulator(svc)
	if err != nil {
		t.Fatal(err)
	}
	opts := shortOpts(seed)
	opts.Monkey.Events = events
	return &campaign{world: world, detector: detector, acc: acc, cfg: dispatch.Config{
		Workers:    2,
		Emulator:   opts,
		BaseSeed:   seed,
		Detector:   detector,
		Attributor: attribution.NewAttributor(svc),
	}}
}

func (c *campaign) run(t testing.TB) {
	t.Helper()
	events, err := dispatch.Stream(context.Background(), c.world, c.world.Resolver, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dispatch.Drain(events, c.acc, dispatch.SinkFunc(func(ev dispatch.RunEvent) error {
		c.events = append(c.events, ev)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
}

// TestReleasedCapturesPoisoned: a worker gives its capture buffer back
// when it exits, holding its last run's capture, which no later run of
// its fleet overwrites. Nothing a finished campaign returns may alias it:
// with every released buffer overwritten by 0xAA, the campaign's events,
// runs and figures read as they did before.
func TestReleasedCapturesPoisoned(t *testing.T) {
	dispatch.DrainIdleCaptures()
	defer dispatch.DrainIdleCaptures()
	c := newCampaign(t, 43, 24, 120)
	c.run(t)
	c.detector.Finalize(2)
	agg, err := c.acc.Finish(c.detector)
	if err != nil {
		t.Fatal(err)
	}
	render := func() []byte {
		var b bytes.Buffer
		for _, ev := range c.events {
			line, err := json.Marshal(struct {
				Kind       dispatch.EventKind
				App        int
				Err        string
				Run        *attribution.RunResult
				Quarantine *dispatch.QuarantinedApp
				Summary    *dispatch.Result
			}{ev.Kind, ev.AppIndex, errString(ev.Err), ev.Run, ev.Quarantine, ev.Summary})
			if err != nil {
				t.Fatal(err)
			}
			b.Write(append(line, '\n'))
		}
		if err := agg.Summarize(25).WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	before := render()
	if n := dispatch.PoisonIdleCaptures(); n == 0 {
		t.Fatal("the campaign's workers released no capture buffer")
	}
	if after := render(); !bytes.Equal(after, before) {
		t.Errorf("poisoning the released capture buffers changed the campaign's events, runs or figures (%d bytes rendered, %d before)", len(after), len(before))
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestStreamRetainedHeapIndependentOfCorpus: what a Stream leaves behind
// once its events are drained — the fleet's collector, store and
// workers, and what it adds to the world and the attributor it was
// handed — grows by at most 1 KiB per app from 64 to 512 apps. Each
// reading takes two collections (a sync.Pool's victim cache is empty by
// the second) after dropping the per-processor idle lists, whose scratch
// is bounded by the processor count, not the corpus. The campaign's own
// sinks, LibRadar's per-package app counts and the accumulator's folds
// and symbol tables, are read too but only logged: their origin-indexed
// columns grow with the corpus (ROADMAP item 6).
func TestStreamRetainedHeapIndependentOfCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("two whole campaigns skipped in -short mode")
	}
	live := func() int64 {
		dispatch.DrainIdleCaptures()
		apk.DrainIdle()
		dex.DrainIdle()
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	// retained returns the live heap a drained Stream added with its sinks
	// kept, and with them dropped.
	retained := func(apps int) (withSinks, stream int64) {
		c := newCampaign(t, 42, apps, 20)
		before := live()
		c.run(t)
		c.events = nil
		withSinks = live() - before
		c.detector, c.acc, c.cfg.Detector = nil, nil, nil
		stream = live() - before
		runtime.KeepAlive(c)
		return withSinks, stream
	}
	sinks64, stream64 := retained(64)
	sinks512, stream512 := retained(512)
	const extra, perApp = 512 - 64, 1 << 10
	t.Logf("retained after a Stream: %d KiB at 64 apps, %d KiB at 512 (%d bytes per extra app); with its detector and accumulator, %d KiB and %d KiB (%d bytes per extra app)",
		stream64>>10, stream512>>10, (stream512-stream64)/extra, sinks64>>10, sinks512>>10, (sinks512-sinks64)/extra)
	if grew := stream512 - stream64; grew > extra*perApp {
		t.Errorf("a Stream retains %d bytes at 512 apps and %d at 64: %d bytes per extra app, over %d",
			stream512, stream64, grew/extra, perApp)
	}
}
