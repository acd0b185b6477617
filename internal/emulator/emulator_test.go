package emulator

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
	"time"

	"libspector/internal/art"
	"libspector/internal/attribution"
	"libspector/internal/monkey"
	"libspector/internal/nets"
	"libspector/internal/synth"
	"libspector/internal/xposed"
)

// testApp generates one synthetic app plus its world.
func testApp(t *testing.T, seed uint64) (*synth.App, *synth.World) {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Seed = seed
	cfg.NumApps = 4
	cfg.ARMOnlyRate = 0
	world, err := synth.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app, err := world.GenerateApp(0)
	if err != nil {
		t.Fatal(err)
	}
	return app, world
}

func shortOptions(seed uint64) Options {
	opts := DefaultOptions(seed)
	opts.Monkey.Events = 120
	return opts
}

func TestRunProducesAllArtifacts(t *testing.T) {
	app, world := testApp(t, 21)
	arts, err := Run(Installation{Program: app.Program, APKSHA256: app.SHA256}, world.Resolver, shortOptions(21))
	if err != nil {
		t.Fatal(err)
	}
	if arts.EventsInjected != 120 {
		t.Errorf("events injected = %d", arts.EventsInjected)
	}
	if arts.HookErrors != 0 {
		t.Errorf("hook errors = %d", arts.HookErrors)
	}
	if len(arts.CaptureBytes) == 0 {
		t.Fatal("no capture produced")
	}
	if len(arts.RawReports) == 0 {
		t.Fatal("no supervisor reports")
	}
	if len(arts.Trace) == 0 {
		t.Error("empty method trace")
	}
	if arts.NetStats.TCPWireBytes == 0 {
		t.Error("no TCP traffic recorded")
	}
	// Throttle accounting: 120 events × 500 ms = 60 s of virtual time at
	// minimum.
	if arts.VirtualDuration < time.Minute {
		t.Errorf("virtual duration %v below the throttle floor", arts.VirtualDuration)
	}
	// Every raw report decodes and carries the app's checksum.
	for i, raw := range arts.RawReports {
		rep, err := xposed.DecodeReport(raw)
		if err != nil {
			t.Fatalf("raw report %d: %v", i, err)
		}
		if rep.APKSHA256 != app.SHA256 {
			t.Errorf("report %d carries wrong checksum", i)
		}
	}
}

func TestRunCaptureJoinsWithReports(t *testing.T) {
	app, world := testApp(t, 22)
	arts, err := Run(Installation{Program: app.Program, APKSHA256: app.SHA256}, world.Resolver, shortOptions(22))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := attribution.ParseCapture(bytes.NewReader(arts.CaptureBytes),
		nets.DefaultLocalAddr, nets.DefaultCollectorAddr, nets.DefaultCollectorPort)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := xposed.DecodeReports(arts.RawReports)
	if err != nil {
		t.Fatal(err)
	}
	// One flow per report, every report matches a flow.
	if len(sum.Flows) != len(reports) {
		t.Errorf("flows = %d, reports = %d", len(sum.Flows), len(reports))
	}
	for _, rep := range reports {
		if _, ok := sum.FlowByTuple(rep.Tuple); !ok {
			t.Errorf("report tuple %v has no flow", rep.Tuple)
		}
	}
	// Every flow has a domain (all connections were dialed by name).
	for _, f := range sum.Flows {
		if f.Domain == "" {
			t.Errorf("flow %v lacks a domain", f.Tuple)
		}
	}
	if sum.SupervisorPackets != len(reports) {
		t.Errorf("capture holds %d supervisor datagrams for %d reports",
			sum.SupervisorPackets, len(reports))
	}
}

func TestRunUninstrumented(t *testing.T) {
	app, world := testApp(t, 23)
	opts := shortOptions(23)
	opts.Instrumented = false
	arts, err := Run(Installation{Program: app.Program, APKSHA256: app.SHA256}, world.Resolver, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts.RawReports) != 0 {
		t.Error("uninstrumented run must not produce reports")
	}
	sum, err := attribution.ParseCapture(bytes.NewReader(arts.CaptureBytes),
		nets.DefaultLocalAddr, nets.DefaultCollectorAddr, nets.DefaultCollectorPort)
	if err != nil {
		t.Fatal(err)
	}
	if sum.SupervisorPackets != 0 {
		t.Error("uninstrumented capture contains supervisor datagrams")
	}
	if len(sum.Flows) == 0 {
		t.Error("app traffic missing from uninstrumented capture")
	}
}

func TestInstrumentationDelayShowsInVirtualTime(t *testing.T) {
	app, world := testApp(t, 24)
	instr, err := Run(Installation{Program: app.Program, APKSHA256: app.SHA256}, world.Resolver, shortOptions(24))
	if err != nil {
		t.Fatal(err)
	}
	opts := shortOptions(24)
	opts.Instrumented = false
	plain, err := Run(Installation{Program: app.Program, APKSHA256: app.SHA256}, world.Resolver, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Same monkey seed → same flows; the instrumented run charges the
	// 0.5 ms hook delay per connect.
	if instr.VirtualDuration <= plain.VirtualDuration {
		t.Errorf("instrumented %v should exceed uninstrumented %v",
			instr.VirtualDuration, plain.VirtualDuration)
	}
	wantDelta := time.Duration(len(instr.RawReports)) * DefaultInstrumentationDelay
	if got := instr.VirtualDuration - plain.VirtualDuration; got != wantDelta {
		t.Errorf("delay delta = %v, want %v (%d connects × 0.5 ms)",
			got, wantDelta, len(instr.RawReports))
	}
}

func TestRunDeterminism(t *testing.T) {
	app, world := testApp(t, 25)
	a, err := Run(Installation{Program: app.Program, APKSHA256: app.SHA256}, world.Resolver, shortOptions(25))
	if err != nil {
		t.Fatal(err)
	}
	// Regenerate the app so runtime state (RunLimit counters) is fresh.
	app2, err := world.GenerateApp(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Installation{Program: app2.Program, APKSHA256: app2.SHA256}, world.Resolver, shortOptions(25))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.CaptureBytes, b.CaptureBytes) {
		t.Error("captures differ across identical runs")
	}
	if len(a.RawReports) != len(b.RawReports) {
		t.Error("report counts differ across identical runs")
	}
	// The method traces must be identical sets: a regression here usually
	// means map-iteration order leaked into app generation.
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("trace sizes differ: %d vs %d", len(a.Trace), len(b.Trace))
	}
	for sig := range a.Trace {
		if _, ok := b.Trace[sig]; !ok {
			t.Fatalf("trace contents differ: %s missing", sig)
		}
	}
}

func TestBoundedProfilerUndercounts(t *testing.T) {
	app, world := testApp(t, 26)
	unique, err := Run(Installation{Program: app.Program, APKSHA256: app.SHA256}, world.Resolver, shortOptions(26))
	if err != nil {
		t.Fatal(err)
	}
	app2, err := world.GenerateApp(0)
	if err != nil {
		t.Fatal(err)
	}
	opts := shortOptions(26)
	opts.ProfilerMode = art.ProfilerBounded
	opts.ProfilerCapacity = 64
	bounded, err := Run(Installation{Program: app2.Program, APKSHA256: app2.SHA256}, world.Resolver, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The stock bounded buffer drops entries and records fewer unique
	// methods — the §II-B1 deficiency the paper's ART modification fixes.
	if bounded.ProfilerDroppedEntries == 0 {
		t.Error("bounded profiler should have dropped entries under this load")
	}
	if bounded.ProfilerUniqueMethods >= unique.ProfilerUniqueMethods {
		t.Errorf("bounded mode recorded %d methods, unique mode %d — bounded must undercount",
			bounded.ProfilerUniqueMethods, unique.ProfilerUniqueMethods)
	}
}

func TestRunValidation(t *testing.T) {
	app, world := testApp(t, 27)
	if _, err := Run(Installation{}, world.Resolver, shortOptions(1)); err == nil {
		t.Error("missing program should fail")
	}
	if _, err := Run(Installation{Program: app.Program, APKSHA256: app.SHA256}, nil, shortOptions(1)); err == nil {
		t.Error("nil resolver should fail")
	}
	bad := shortOptions(1)
	bad.Monkey = monkey.Config{}
	if _, err := Run(Installation{Program: app.Program, APKSHA256: app.SHA256}, world.Resolver, bad); err == nil {
		t.Error("invalid monkey config should fail")
	}
}

// A run handed the previous run's capture as scratch writes a
// byte-identical capture into that same buffer, and allocates nothing for
// it: the whole run allocates less than a quarter of the capture's size.
func TestCaptureBufferReuse(t *testing.T) {
	app, world := testApp(t, 28)
	first, err := Run(Installation{Program: app.Program, APKSHA256: app.SHA256}, world.Resolver, shortOptions(28))
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), first.CaptureBytes...)
	// Regenerate the app so runtime state (RunLimit counters) is fresh.
	app2, err := world.GenerateApp(0)
	if err != nil {
		t.Fatal(err)
	}
	opts := shortOptions(28)
	opts.Capture = first.CaptureBytes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	second, err := Run(Installation{Program: app2.Program, APKSHA256: app2.SHA256}, world.Resolver, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second.CaptureBytes, want) {
		t.Fatal("capture written into a reused buffer differs from the fresh one")
	}
	if &second.CaptureBytes[0] != &first.CaptureBytes[0] {
		t.Fatal("second capture does not alias the buffer it was given")
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(want)/4); got >= limit {
		t.Fatalf("run into a reused %d-byte buffer allocated %d bytes, want < %d", len(want), got, limit)
	}
	if _, err := attribution.ParseCapture(bytes.NewReader(second.CaptureBytes),
		nets.DefaultLocalAddr, nets.DefaultCollectorAddr, nets.DefaultCollectorPort); err != nil {
		t.Errorf("reused-buffer capture does not parse: %v", err)
	}
}

// The capture bytes of a fixed-seed run, clean and torn, are pinned:
// attribution never verifies checksums, so a wrong checksum kernel or a
// writer that moves a byte would pass every figure and store golden. The
// shas were computed with the 16-bit checksum loop and the bufio writer.
func TestCaptureBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		cut  int
		size int
		sha  string
	}{
		{0, 2646857, "4f7cb00d8739356cec7dc88f961ce9061534f5ed9c7a9cd00e21c7cedc5b8011"},
		{7, 2646850, "b1bbc1072e4b0f0e452a1ccff5aa9e6fb25de0e742d713f5e99a1fe485c88bf3"},
	} {
		app, world := testApp(t, 29)
		opts := shortOptions(29)
		opts.TruncateCaptureTail = tc.cut
		arts, err := Run(Installation{Program: app.Program, APKSHA256: app.SHA256}, world.Resolver, opts)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(arts.CaptureBytes)
		if got := hex.EncodeToString(sum[:]); len(arts.CaptureBytes) != tc.size || got != tc.sha {
			t.Errorf("cut %d: capture of %d bytes, sha %s; want %d bytes, sha %s", tc.cut, len(arts.CaptureBytes), got, tc.size, tc.sha)
		}
	}
}
