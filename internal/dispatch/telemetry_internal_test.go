package dispatch

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"libspector/internal/emulator"
	"libspector/internal/nets"
	"libspector/internal/obs"
	"libspector/internal/synth"
	"libspector/internal/vtclient"

	"libspector/internal/attribution"
)

// telemetryWorld builds a small corpus plus attributor for in-package
// telemetry tests (the exported helpers live in the external test package).
func telemetryWorld(t *testing.T, seed uint64, apps int) (*synth.World, *attribution.Attributor) {
	t.Helper()
	sc := synth.DefaultConfig()
	sc.Seed = seed
	sc.NumApps = apps
	world, err := synth.NewWorld(sc)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := vtclient.NewService(vtclient.NewOracle(seed, world.DomainTruth()))
	if err != nil {
		t.Fatal(err)
	}
	return world, attribution.NewAttributor(svc)
}

// drainFleet streams the source through a fleet and drains it into the
// sinks: the whole campaign, for in-package tests that read only its
// Result.
func drainFleet(source AppSource, resolver nets.Resolver, cfg Config, sinks ...Sink) (*Result, error) {
	events, err := Stream(context.Background(), source, resolver, cfg)
	if err != nil {
		return nil, err
	}
	return Drain(events, sinks...)
}

// TestFleetTelemetrySeries runs a clean collector-backed fleet under a
// virtual telemetry clock and checks the core series: outcome counters
// reconcile with the result, collector totals mirror the supervisor's send
// count, and no wall-only series leaks into the deterministic snapshot.
func TestFleetTelemetrySeries(t *testing.T) {
	const apps = 8
	world, attributor := telemetryWorld(t, 83, apps)
	tel := obs.NewVirtual(nil)
	opts := emulator.DefaultOptions(83)
	opts.Monkey.Events = 120
	res, err := drainFleet(world, world.Resolver, Config{
		Workers:    3,
		Emulator:   opts,
		BaseSeed:   83,
		Attributor: attributor,
		Telemetry:  tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := tel.Metrics().Snapshot()
	c := snap.Counters
	if c[obs.MFleetApps] != apps {
		t.Errorf("%s = %d, want %d", obs.MFleetApps, c[obs.MFleetApps], apps)
	}
	if got := c[obs.MFleetCompleted] + c[obs.MFleetSkipped]; got != apps {
		t.Errorf("completed %d + skipped %d != %d apps", c[obs.MFleetCompleted], c[obs.MFleetSkipped], apps)
	}
	if c[obs.MFleetCompleted] != int64(res.Accounting.Completed) {
		t.Errorf("completed counter %d, ledger has %d runs", c[obs.MFleetCompleted], res.Accounting.Completed)
	}
	if c[obs.MCollectorReceived] != int64(res.CollectorReports) {
		t.Errorf("collector counter %d, result totals %d", c[obs.MCollectorReceived], res.CollectorReports)
	}
	if c[obs.MCollectorReceived] == 0 || c[obs.MCollectorReceived] != c[obs.MXposedReports] {
		t.Errorf("received %d datagrams, supervisor sent %d", c[obs.MCollectorReceived], c[obs.MXposedReports])
	}
	if c[obs.MFleetDrainTimeouts] != 0 {
		t.Errorf("clean fleet recorded %d drain timeouts", c[obs.MFleetDrainTimeouts])
	}
	// Wall-only series must not exist in a virtual-clock snapshot.
	if _, ok := snap.Histograms[obs.MAttribWallUS]; ok {
		t.Errorf("virtual snapshot contains wall-only series %s", obs.MAttribWallUS)
	}
	if snap.Gauges[obs.MFleetWorkersBusy] != 0 {
		t.Errorf("workers-busy gauge = %d after the fleet drained", snap.Gauges[obs.MFleetWorkersBusy])
	}

	// Every analyzed app carries a full trace: dispatch root plus the
	// boot/monkey/capture/drain/attribution stage children.
	if tel.Tracer().SpanCount() == 0 {
		t.Fatal("tracer recorded no spans")
	}
	var buf bytes.Buffer
	if err := tel.Tracer().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{obs.SpanDispatch, obs.SpanEmulatorBoot, obs.SpanMonkeyRun,
		obs.SpanPcapCapture, obs.SpanDrain, obs.SpanAttribution} {
		if !strings.Contains(buf.String(), `"name":"`+name+`"`) {
			t.Errorf("no %q span recorded", name)
		}
	}
}

// TestDrainBarrierTimeoutIsWallBudget: a worker whose datagrams never
// reach the collector (its client points at a black-hole socket) cannot
// land its barrier, so every attempt fails with the barrier timeout after
// the wall budget, the timeout series counts each one, and the ledger
// charges exactly the retry backoff, none of it slept.
func TestDrainBarrierTimeoutIsWallBudget(t *testing.T) {
	origBudget := collectorDrainBudget
	collectorDrainBudget = 25 * time.Millisecond
	defer func() { collectorDrainBudget = origBudget }()

	blackhole, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer blackhole.Close()
	origDial := dialCollector
	dialCollector = func(*net.UDPAddr) (*Client, error) {
		return NewClient(blackhole.LocalAddr().(*net.UDPAddr))
	}
	defer func() { dialCollector = origDial }()

	const apps = 4
	world, attributor := telemetryWorld(t, 97, apps)
	tel := obs.NewVirtual(nil)
	opts := emulator.DefaultOptions(97)
	opts.Monkey.Events = 120
	res, err := drainFleet(world, world.Resolver, Config{
		Workers:         2,
		Emulator:        opts,
		BaseSeed:        97,
		Attributor:      attributor,
		ContinueOnError: true,
		MaxAttempts:     2,
		RetryBackoff:    time.Second,
		Telemetry:       tel,
	})
	if err != nil {
		t.Fatalf("ContinueOnError fleet aborted: %v", err)
	}
	if len(res.Quarantined) == 0 {
		t.Fatal("black-holed collector quarantined no app")
	}
	for _, q := range res.Quarantined {
		if !strings.Contains(q.LastErr.Error(), "never landed") {
			t.Errorf("app %d: last error %q, want the barrier timeout", q.AppIndex, q.LastErr)
		}
	}
	acct := res.Accounting
	timeouts := tel.Metrics().Snapshot().Counters[obs.MFleetDrainTimeouts]
	if failed := int64(acct.Attempts - acct.SkippedARMOnly); timeouts != failed || failed != int64(2*len(res.Quarantined)) {
		t.Errorf("drain timeouts = %d, failed attempts = %d, quarantined apps = %d", timeouts, failed, len(res.Quarantined))
	}
	if want := time.Duration(len(res.Quarantined)) * time.Second; acct.Backoff != want {
		t.Errorf("ledger charged %v of backoff, want exactly the %v of one retry per quarantined app", acct.Backoff, want)
	}
}
