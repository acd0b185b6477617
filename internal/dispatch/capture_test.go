package dispatch_test

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"

	"libspector/internal/analysis"
	"libspector/internal/apk"
	"libspector/internal/attribution"
	"libspector/internal/dex"
	"libspector/internal/dispatch"
	"libspector/internal/dispatch/dispatchtest"
	"libspector/internal/emulator"
	"libspector/internal/journal"
	"libspector/internal/libradar"
	"libspector/internal/nets"
	"libspector/internal/pcap"
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

// TestCaptureWireVolumesMatchTheStack: a capture keeps only the headers
// of most TCP segments, so its size no longer shows a wrong length in a
// record header. What guards the sizes is the network stack's own
// counters, charged as it sent each packet and journaled with the run's
// meters. Over a seed-42 12-app campaign at VolumeScale 4, each stored
// run's parsed capture accounts exactly the TCP and DNS wire bytes and
// the packets the stack counted, and every flow that moved payload in a
// direction kept its first payload there.
func TestCaptureWireVolumesMatchTheStack(t *testing.T) {
	const seed, apps = 42, 12
	cfg := synth.DefaultConfig()
	cfg.Seed, cfg.NumApps, cfg.VolumeScale = seed, apps, 4
	world, err := synth.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "journal")
	j, err := journal.Create(path, journal.Header{Seed: seed, Apps: apps}, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store, err := dispatch.NewArtifactStore(filepath.Join(dir, "artifacts"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dispatchtest.Run(world, world.Resolver, dispatch.Config{
		Workers: 2, Emulator: emulator.DefaultOptions(seed), BaseSeed: seed,
		Attributor: newAttributor(t, seed, world), Journal: j, Artifacts: store,
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	replay, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	runs := 0
	for app, out := range replay.Outcomes {
		if out.ArtifactSHA == "" {
			continue
		}
		runs++
		stored, err := store.Load(out.ArtifactSHA)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := attribution.ParseCapture(pcap.InPlace(stored.Capture),
			nets.DefaultLocalAddr, nets.DefaultCollectorAddr, nets.DefaultCollectorPort)
		if err != nil {
			t.Fatalf("app %d: %v", app, err)
		}
		m := out.Meters
		if sum.TCPWireBytes != m.TCPWireBytes || sum.DNSWireBytes != m.DNSWireBytes || sum.UDPWireBytes+sum.SupervisorWireBytes != m.UDPWireBytes {
			t.Errorf("app %d: capture accounts TCP %d, DNS %d, UDP %d wire bytes; the stack counted %d, %d, %d",
				app, sum.TCPWireBytes, sum.DNSWireBytes, sum.UDPWireBytes+sum.SupervisorWireBytes, m.TCPWireBytes, m.DNSWireBytes, m.UDPWireBytes)
		}
		packets := int64(datagrams(t, stored.Capture))
		for _, f := range sum.Flows {
			packets += int64(f.PacketsSent + f.PacketsReceived)
			// Every TCP packet carries 40 bytes of headers; a direction
			// that counts more moved payload.
			if f.BytesSent > 40*int64(f.PacketsSent) && len(f.FirstClientPayload) == 0 ||
				f.BytesReceived > 40*int64(f.PacketsReceived) && len(f.FirstServerPayload) == 0 {
				t.Errorf("app %d: flow %s moved payload the capture did not keep", app, f.Tuple)
			}
		}
		if packets != m.Packets {
			t.Errorf("app %d: capture accounts %d packets, the stack counted %d", app, packets, m.Packets)
		}
	}
	if runs != apps {
		t.Fatalf("%d of %d apps stored a run", runs, apps)
	}
}

// datagrams counts the UDP packets of a capture.
func datagrams(t *testing.T, capture []byte) int {
	t.Helper()
	r, err := pcap.NewReader(pcap.InPlace(capture))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	var p pcap.Packet
	var seg pcap.Segment
	for r.Next(&p) == nil {
		if err := pcap.DecodeSegmentInto(&seg, p.Data, p.OrigLen); err != nil {
			t.Fatal(err)
		}
		if seg.Protocol == pcap.ProtoUDP {
			n++
		}
	}
	return n
}

// TestStreamRetainedHeapIndependentOfCorpus: what a Stream leaves behind
// once its events are drained — the fleet's collector, store and
// workers, and what it adds to the world and the attributor it was
// handed — grows by at most 1 KiB per app from 64 to 512 apps, and the
// analysis accumulator the campaign folds into by at most 1.5 KiB. Each
// reading takes two collections (a sync.Pool's victim cache is empty by
// the second) after dropping the per-processor idle lists, whose scratch
// is bounded by the processor count, not the corpus. LibRadar's
// detector is read too but only logged: it keeps every package prefix
// of every app (ROADMAP item 6).
func TestStreamRetainedHeapIndependentOfCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("two whole campaigns skipped in -short mode")
	}
	live := func() int64 {
		apk.DrainIdle()
		dex.DrainIdle()
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	// retained returns the live heap a drained Stream added, and what its
	// accumulator and its detector each held on top of it.
	retained := func(apps int) (stream, acc, detector int64) {
		c := newCampaign(t, 42, apps, 20)
		before := live()
		c.run(t)
		c.events = nil
		withSinks := live()
		c.acc = nil
		withDetector := live()
		c.detector, c.cfg.Detector = nil, nil
		stream = live() - before
		runtime.KeepAlive(c)
		return stream, withSinks - withDetector, withDetector - before - stream
	}
	stream64, acc64, det64 := retained(64)
	stream512, acc512, det512 := retained(512)
	const extra, perApp, accPerApp = 512 - 64, 1 << 10, 3 << 9
	t.Logf("retained after a Stream: %d KiB at 64 apps, %d KiB at 512 (%d bytes per extra app); its accumulator %d KiB and %d KiB (%d bytes per extra app); its detector %d KiB and %d KiB (%d bytes per extra app)",
		stream64>>10, stream512>>10, (stream512-stream64)/extra, acc64>>10, acc512>>10, (acc512-acc64)/extra, det64>>10, det512>>10, (det512-det64)/extra)
	if grew := stream512 - stream64; grew > extra*perApp {
		t.Errorf("a Stream retains %d bytes at 512 apps and %d at 64: %d bytes per extra app, over %d",
			stream512, stream64, grew/extra, perApp)
	}
	if grew := acc512 - acc64; grew > extra*accPerApp {
		t.Errorf("the accumulator retains %d bytes at 512 apps and %d at 64: %d bytes per extra app, over %d",
			acc512, acc64, grew/extra, accPerApp)
	}
}
