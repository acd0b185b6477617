// Package emulator composes the substrates into one analysis device: a
// fresh Android-image equivalent per run (same user profile and device
// IDs, no account logins — §II-B3), the app under test, the monkey
// exerciser, the Xposed Socket Supervisor, the Method Monitor profiler,
// and the network stack with full packet capture.
package emulator

import (
	"context"
	"errors"
	"fmt"
	"time"

	"libspector/internal/art"
	"libspector/internal/borderpatrol"
	"libspector/internal/faults"
	"libspector/internal/monkey"
	"libspector/internal/nets"
	"libspector/internal/obs"
	"libspector/internal/pcap"
	"libspector/internal/sim"
	"libspector/internal/xposed"
)

// DefaultInstrumentationDelay is the paper's measured worst-case
// per-request packet delay introduced by the supervisor (0.5 ms, §II-B3).
const DefaultInstrumentationDelay = 500 * time.Microsecond

// Installation is an app installed on the device: its executable program
// plus the apk checksum the supervisor embeds in reports.
type Installation struct {
	Program   *art.Program
	APKSHA256 string
}

// Options parameterize one run.
type Options struct {
	// Monkey is the exerciser configuration (paper: 1,000 events, 500 ms).
	Monkey monkey.Config
	// Seed drives the monkey's event stream.
	Seed uint64
	// Instrumented attaches the Socket Supervisor; disable to measure the
	// uninstrumented baseline (E3).
	Instrumented bool
	// ProfilerMode selects the Method Monitor buffer behaviour; zero
	// value defaults to the paper's unique-method modification.
	ProfilerMode art.ProfilerMode
	// ProfilerCapacity applies to the bounded mode.
	ProfilerCapacity int
	// Capture is scratch space the run appends its pcap into, from
	// Capture[:0]; Artifacts.CaptureBytes aliases it (or the buffer it
	// grew into). Passing the previous run's CaptureBytes reuses its
	// capacity. Nil starts a fresh buffer.
	Capture []byte
	// ReportSink optionally forwards supervisor datagrams to an external
	// collector (e.g. the dispatch package's UDP collector).
	ReportSink func(payload []byte) error
	// Policy optionally installs a BorderPatrol-style enforcement policy;
	// connections it denies are dropped (the app sees them fail) and
	// counted, without aborting the run (§IV-E).
	Policy *borderpatrol.Policy
	// StartTime anchors the virtual clock.
	StartTime time.Time
	// PacketLatency is the virtual per-packet latency.
	PacketLatency time.Duration
	// InstrumentationDelay overrides the per-connect hook cost; zero uses
	// DefaultInstrumentationDelay.
	InstrumentationDelay time.Duration

	// Fault-injection hook points (internal/faults). Zero values disable
	// injection; the dispatch layer derives these from its fault plan.

	// AbortAfterEvents crashes the run with an injected-fault error once
	// that many monkey events have been dispatched.
	AbortAfterEvents int
	// StallAfterEvents parks the run — blocking until the context is
	// cancelled — once that many events have been dispatched: a hung
	// emulator only a per-run deadline can reclaim.
	StallAfterEvents int
	// TruncateCaptureTail removes that many trailing bytes from the
	// capture, leaving the torn pcap a crashed worker writes.
	TruncateCaptureTail int
	// DropDatagramEvery loses every Nth supervisor datagram on the wire
	// (1 = all of them); detected by the sent-vs-delivered gap.
	DropDatagramEvery int
	// HookFaultReports makes the supervisor's first N report attempts fail
	// as hook errors.
	HookFaultReports int

	// Telemetry, when set, receives the run's metrics (internal/obs) —
	// run, event and report counters, wire-byte totals, the
	// virtual-duration histogram — and turns on the stage spans. Nil
	// disables instrumentation.
	Telemetry *obs.Telemetry
	// Meters is where the run charges every one of those series:
	// worker-local cells the caller reads (the dispatcher journals them
	// as the attempt's delta) and flushes. When nil the run keeps a
	// private set and flushes it into Telemetry itself on every exit
	// path.
	Meters *obs.Meters
	// Span, when set, is the run's dispatch span; the emulator hangs the
	// per-stage child spans (emulator-boot, monkey-run,
	// xposed-supervision, pcap-capture) off it. Stage spans are timed on
	// the run's own virtual clock, so they are deterministic under a
	// fixed seed regardless of host scheduling.
	Span *obs.Span
}

// DefaultOptions mirrors the paper's experimental setup.
func DefaultOptions(seed uint64) Options {
	return Options{
		Monkey:       monkey.DefaultConfig(),
		Seed:         seed,
		Instrumented: true,
		ProfilerMode: art.ProfilerUnique,
		StartTime:    time.Date(2019, time.July, 1, 0, 0, 0, 0, time.UTC),
	}
}

// Artifacts is everything one run produces for offline analysis.
type Artifacts struct {
	// CaptureBytes holds the pcap, in Options.Capture's backing array
	// when it had the room.
	CaptureBytes []byte
	// RawReports are the supervisor's datagram payloads as sent on the
	// wire (empty when not instrumented); xposed.DecodeReports decodes
	// them.
	RawReports [][]byte
	// Trace is the Method Monitor's unique-method signature set.
	Trace map[string]struct{}
	// NetStats are the stack's cumulative wire counters.
	NetStats nets.Stats
	// EventsInjected is the number of monkey events delivered.
	EventsInjected int
	// VirtualDuration is how much device time the run spanned.
	VirtualDuration time.Duration
	// FinishedAt is the virtual-clock instant the run completed; derived
	// artifacts (artifact-store metadata) timestamp with it so identical
	// seeds produce byte-identical outputs.
	FinishedAt time.Time
	// HookErrors counts supervisor failures (should be zero).
	HookErrors int
	// ReportsSent is the supervisor's count of report datagrams emitted;
	// comparing it with len(RawReports) detects in-flight datagram loss.
	ReportsSent int
	// DroppedDatagrams counts supervisor datagrams lost to the injected
	// wire fault (should be zero on a clean run).
	DroppedDatagrams int64
	// BlockedConnections counts dials denied by the enforcement policy.
	BlockedConnections int64
	// Violations are the policy denials, when a policy was installed.
	Violations []borderpatrol.Violation
	// Profiler exposes invocation counters for the profiler ablation.
	ProfilerUniqueMethods  int
	ProfilerTotalCalls     int64
	ProfilerDroppedEntries int64
}

// netPerformer executes network actions on the simulated stack. HTTP flows
// (port 80) carry a parseable request with Host and User-Agent headers;
// HTTPS flows (port 443) carry an opaque TLS-like payload the network-only
// baselines cannot inspect.
type netPerformer struct {
	stack *nets.Stack
	// scratch holds the payload being sent or received; the stack copies
	// it into the capture, so one buffer serves the whole run.
	scratch []byte
}

var _ art.NetworkPerformer = (*netPerformer)(nil)

func (p *netPerformer) Perform(_ *art.Thread, action art.NetworkAction) error {
	if action.UDPExchange {
		return p.stack.ExchangeUDP(action.Domain, action.Port, action.RequestBytes, int(action.ResponseBytes))
	}
	conn, err := p.stack.Dial(action.Domain, action.Port)
	if err != nil {
		// Policy denials are a normal runtime condition: the library sees
		// a failed connection and the app keeps running.
		if errors.Is(err, nets.ErrBlocked) {
			return nil
		}
		return err
	}
	if action.Port == 443 {
		p.scratch = appendTLSLike(p.scratch[:0], action.RequestBytes)
	} else {
		body := 0
		if action.HTTPMethod == "POST" {
			body = action.RequestBytes
		}
		p.scratch = nets.AppendHTTPRequest(p.scratch[:0], action.HTTPMethod, action.Domain, action.Path, action.UserAgent, nil, body)
		if pad := action.RequestBytes - len(p.scratch); pad > 0 && body == 0 {
			p.scratch = appendTLSLike(p.scratch, pad)
		}
	}
	if err := conn.Send(p.scratch); err != nil {
		return err
	}
	if action.Port == 443 {
		if err := conn.ReceiveN(action.ResponseBytes); err != nil {
			return err
		}
		return conn.Close()
	}
	// Plain-HTTP responses carry a status line and headers ahead of the
	// body, as real servers send them; the Content-Type is what
	// content-based classifiers inspect.
	p.scratch = nets.AppendHTTPResponseHeader(p.scratch[:0], action.ContentType, action.ResponseBytes)
	if err := conn.Receive(p.scratch); err != nil {
		return err
	}
	body := action.ResponseBytes - int64(len(p.scratch))
	if body < 0 {
		body = 0
	}
	if err := conn.ReceiveN(body); err != nil {
		return err
	}
	return conn.Close()
}

// appendTLSLike appends an opaque n-byte payload resembling a TLS record
// (at least 8 bytes).
func appendTLSLike(b []byte, n int) []byte {
	if n < 8 {
		n = 8
	}
	b = append(b, 0x16, 0x03, 0x01)
	for i := 3; i < n; i++ {
		b = append(b, byte(i*31))
	}
	return b
}

// Run installs the app on a fresh device image and exercises it with the
// monkey while recording the capture, the supervisor reports, and the
// method trace (§II-B3).
func Run(install Installation, resolver nets.Resolver, opts Options) (*Artifacts, error) {
	return RunContext(context.Background(), install, resolver, opts)
}

// RunContext is Run with cancellation: the monkey loop checks ctx between
// events, so a cancelled run stops within one event dispatch and returns
// the context's error without its artifacts.
func RunContext(ctx context.Context, install Installation, resolver nets.Resolver, opts Options) (*Artifacts, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if install.Program == nil {
		return nil, fmt.Errorf("emulator: installation has no program")
	}
	if resolver == nil {
		return nil, fmt.Errorf("emulator: nil resolver")
	}
	if err := opts.Monkey.Validate(); err != nil {
		return nil, fmt.Errorf("emulator: %w", err)
	}
	if opts.ProfilerMode == 0 {
		opts.ProfilerMode = art.ProfilerUnique
	}
	if opts.InstrumentationDelay == 0 {
		opts.InstrumentationDelay = DefaultInstrumentationDelay
	}
	if opts.StartTime.IsZero() {
		opts.StartTime = time.Date(2019, time.July, 1, 0, 0, 0, 0, time.UTC)
	}

	meters := opts.Meters
	if meters == nil {
		meters = obs.NewMeters()
		defer meters.Flush(opts.Telemetry)
	}
	meters.Counter(obs.MEmulatorRuns).Inc()
	// The boot span covers image composition: network stack, runtime,
	// instrumentation, and the app launch. Like every stage span below it
	// is timed on the run's own virtual clock, so a same-seed run always
	// serializes the same trace.
	boot := opts.Span.Child(obs.SpanEmulatorBoot, opts.StartTime)

	clock := nets.NewClock(opts.StartTime)
	capture := pcap.NewWriter(opts.Capture)
	stack, err := nets.NewStack(nets.Config{
		Resolver:      resolver,
		Clock:         clock,
		Capture:       capture,
		PacketLatency: opts.PacketLatency,
		Meters:        meters,
	})
	if err != nil {
		return nil, fmt.Errorf("emulator: building network stack: %w", err)
	}

	profiler, err := art.NewProfiler(opts.ProfilerMode, opts.ProfilerCapacity, install.Program.Dex)
	if err != nil {
		return nil, fmt.Errorf("emulator: %w", err)
	}
	runtime, err := art.NewRuntime(install.Program, profiler, &netPerformer{stack: stack})
	if err != nil {
		return nil, fmt.Errorf("emulator: %w", err)
	}

	var enforcer *borderpatrol.Enforcer
	if opts.Policy != nil {
		enforcer, err = borderpatrol.NewEnforcer(*opts.Policy, runtime.Thread())
		if err != nil {
			return nil, fmt.Errorf("emulator: %w", err)
		}
		enforcer.Bind(stack)
	}

	artifacts := &Artifacts{}
	var framework *xposed.Framework
	if opts.Instrumented {
		framework, err = xposed.NewFramework(runtime.Thread())
		if err != nil {
			return nil, fmt.Errorf("emulator: %w", err)
		}
		framework.SetMeters(meters)
		supervisor, err := xposed.NewSupervisor(install.APKSHA256, install.Program.Dex, stack)
		if err != nil {
			return nil, fmt.Errorf("emulator: %w", err)
		}
		supervisor.SetMeters(meters)
		supervisor.FailFirstReports(opts.HookFaultReports)
		framework.Register(supervisor)
		framework.Bind(stack)
		stack.SetInstrumentationDelay(opts.InstrumentationDelay)
		if every := opts.DropDatagramEvery; every > 0 {
			stack.SetDatagramLoss(func(i int) bool { return i%every == 0 })
		}
		defer func() {
			artifacts.ReportsSent = int(supervisor.ReportsSent())
			artifacts.DroppedDatagrams = stack.DroppedDatagrams()
		}()
		// The sink owns each payload (SetUDPSink), so the run's evidence
		// keeps the supervisor's buffer itself.
		stack.SetUDPSink(func(payload []byte) error {
			artifacts.RawReports = append(artifacts.RawReports, payload)
			if opts.ReportSink != nil {
				return opts.ReportSink(payload)
			}
			return nil
		})
	}

	exerciser, err := monkey.New(opts.Monkey, sim.NewRand(opts.Seed).Split("monkey"))
	if err != nil {
		return nil, fmt.Errorf("emulator: %w", err)
	}

	if err := runtime.Launch(); err != nil {
		return nil, fmt.Errorf("emulator: launching app: %w", err)
	}
	boot.Attr("instrumented", fmt.Sprintf("%t", opts.Instrumented)).End(clock.Now())
	monkeyStart := clock.Now()
	monkeySpan := opts.Span.Child(obs.SpanMonkeyRun, monkeyStart)
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("emulator: run cancelled: %w", err)
		}
		if n := opts.StallAfterEvents; n > 0 && artifacts.EventsInjected >= n {
			// A hung emulator: nothing progresses until the caller's
			// deadline or cancellation reclaims the worker.
			<-ctx.Done()
			return nil, fmt.Errorf("emulator: run stalled after %d events (%w): %w",
				artifacts.EventsInjected, faults.ErrInjected, ctx.Err())
		}
		if n := opts.AbortAfterEvents; n > 0 && artifacts.EventsInjected >= n {
			return nil, fmt.Errorf("emulator: run aborted after %d events: %w",
				artifacts.EventsInjected, faults.ErrInjected)
		}
		ev, ok := exerciser.Next()
		if !ok {
			break
		}
		clock.Advance(opts.Monkey.Throttle)
		if err := runtime.DispatchEvent(ev.X, ev.Y); err != nil {
			return nil, fmt.Errorf("emulator: dispatching event %d: %w", ev.Seq, err)
		}
		artifacts.EventsInjected++
	}
	monkeySpan.AttrInt("events", int64(artifacts.EventsInjected)).End(clock.Now())

	artifacts.Trace = profiler.UniqueMethods()
	artifacts.NetStats = stack.Stats()
	artifacts.VirtualDuration = clock.Now().Sub(opts.StartTime)
	artifacts.FinishedAt = clock.Now()
	artifacts.ProfilerUniqueMethods = profiler.UniqueCount()
	artifacts.ProfilerTotalCalls = profiler.TotalInvocations()
	artifacts.ProfilerDroppedEntries = profiler.DroppedInvocations()
	if framework != nil {
		artifacts.HookErrors = len(framework.HookErrors())
	}
	artifacts.BlockedConnections = stack.BlockedConnections()
	if enforcer != nil {
		artifacts.Violations = enforcer.Violations()
	}
	artifacts.CaptureBytes = capture.Bytes()
	if cut := min(opts.TruncateCaptureTail, len(artifacts.CaptureBytes)); cut > 0 {
		artifacts.CaptureBytes = artifacts.CaptureBytes[:len(artifacts.CaptureBytes)-cut]
	}
	if opts.Telemetry != nil {
		// Supervision and capture span the whole exercised interval; both
		// are reconstructed here because their activity interleaves with
		// the monkey loop rather than following it.
		if opts.Instrumented {
			opts.Span.Child(obs.SpanXposed, monkeyStart).
				AttrInt("reports_sent", int64(artifacts.ReportsSent)).
				AttrInt("hook_errors", int64(artifacts.HookErrors)).
				AttrInt("dropped_datagrams", artifacts.DroppedDatagrams).
				End(clock.Now())
		}
		opts.Span.Child(obs.SpanPcapCapture, opts.StartTime).
			AttrInt("capture_bytes", int64(len(artifacts.CaptureBytes))).
			AttrInt("packets", artifacts.NetStats.PacketCount).
			End(clock.Now())
	}
	meters.Counter(obs.MEmulatorEvents).Add(int64(artifacts.EventsInjected))
	meters.Histogram(obs.MRunVirtualMS, obs.DurationBucketsMS).Add(artifacts.VirtualDuration.Milliseconds())
	// Wire-byte totals fold in once per run from the stack's counters
	// (the packet path itself stays uninstrumented).
	meters.Counter(obs.MNetsTCPBytes).Add(artifacts.NetStats.TCPWireBytes)
	meters.Counter(obs.MNetsUDPBytes).Add(artifacts.NetStats.UDPWireBytes)
	meters.Counter(obs.MNetsDNSBytes).Add(artifacts.NetStats.DNSWireBytes)
	meters.Counter(obs.MNetsPackets).Add(artifacts.NetStats.PacketCount)
	meters.Counter(obs.MNetsCaptureBytes).Add(int64(len(artifacts.CaptureBytes)))
	return artifacts, nil
}
