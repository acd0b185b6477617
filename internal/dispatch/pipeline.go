package dispatch

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"libspector/internal/attribution"
	"libspector/internal/dex"
	"libspector/internal/emulator"
	"libspector/internal/faults"
	"libspector/internal/journal"
	"libspector/internal/libradar"
	"libspector/internal/nets"
	"libspector/internal/obs"
	"libspector/internal/synth"
	"libspector/internal/xposed"
)

// AppSource supplies the corpus to analyze. synth.World implements it.
type AppSource interface {
	NumApps() int
	GenerateApp(i int) (*synth.App, error)
}

// Config parameterizes a fleet run.
type Config struct {
	// Workers is the parallel worker count (0 = GOMAXPROCS). It is also
	// the stream's backpressure budget: at most this many undelivered
	// events are buffered before the fleet stalls.
	Workers int
	// Emulator is the per-run option template; each worker derives its
	// monkey seed from BaseSeed plus the app index.
	Emulator emulator.Options
	// BaseSeed differentiates per-app monkey streams.
	BaseSeed uint64
	// UseCollector routes supervisor reports through a real loopback UDP
	// collector instead of in-process delivery, and attributes from the
	// collector's copy.
	UseCollector bool
	// UseStore round-trips every apk through the database server (put,
	// §III-A select, decode) before running it.
	UseStore bool
	// Detector receives per-app package observations for the LibRadar
	// detection pass; may be nil.
	Detector *libradar.Detector
	// Attributor performs per-run offline analysis. Required.
	Attributor *attribution.Attributor
	// EmitEvidence attaches each run's raw evidence (apk, capture,
	// reports, trace) to its EventRun so persistence sinks such as
	// ArtifactStore can save it (§II-B3). Off by default: evidence is by
	// far the heaviest part of an event.
	EmitEvidence bool
	// ContinueOnError keeps the fleet running when individual app runs
	// fail (a large-scale necessity: the paper's 25,000-app campaign
	// cannot abort on one bad apk). Failures are reported in
	// Result.Failures instead; when unset the stream fails fast, cancelling
	// remaining jobs on the first error.
	ContinueOnError bool
	// RunTimeout bounds each run attempt's wall-clock duration; an attempt
	// that exceeds it (e.g. a hung emulator) is cancelled and counts as a
	// failed attempt. Zero means no per-run deadline.
	RunTimeout time.Duration
	// MaxAttempts is the per-app attempt budget. Values <= 1 keep the
	// original single-attempt behaviour; larger values retry failed runs
	// with exponential backoff, and — in ContinueOnError mode — quarantine
	// apps that exhaust the budget instead of listing them as failures.
	MaxAttempts int
	// RetryBackoff is the base delay between attempts, doubled on each
	// retry (attempt n waits RetryBackoff << (n-1)). Zero retries
	// immediately.
	RetryBackoff time.Duration
	// Clock, when set, absorbs retry backoff by advancing this virtual
	// clock instead of sleeping, so deterministic experiments (and tests)
	// never wait on wall time. Backoff is all it absorbs: collector
	// barriers wait in wall time, since datagrams arrive in real time. The
	// clock is owned by the fleet — do not share it with an emulator run.
	// Nil backs off in real time.
	Clock *nets.Clock
	// Faults injects deterministic run faults (internal/faults); nil
	// disables injection.
	Faults *faults.Injector
	// Telemetry receives fleet metrics and per-run stage spans
	// (internal/obs); nil disables instrumentation entirely. Wall-only
	// measurements are suppressed when the telemetry is virtual, so
	// deterministic experiments snapshot byte-identically.
	Telemetry *obs.Telemetry
	// Journal, when set, durably records every campaign lifecycle event —
	// run started, run completed (after the collector drain), run
	// quarantined — so a killed campaign can resume instead of restarting
	// from app #1. A journal append failure is stream-fatal: a durability
	// log that silently drops records is worse than none.
	Journal *journal.Writer
	// Resume, when set, is the replayed journal of the interrupted
	// campaign: apps with a recorded terminal outcome are folded back into
	// the stream (completed runs reconstructed from Artifacts, their
	// evidence cross-checked against the recorded sha) instead of re-run,
	// and in-flight apps are requeued. The caller is responsible for
	// verifying the journal header against the campaign configuration
	// first (journal.Header.Match).
	Resume *journal.Replay
	// Shard restricts the fleet to a contiguous app-index range of the
	// corpus. The zero value runs everything. App indices stay global —
	// seeds, fault plans, trace IDs, and journal keys are unchanged — so
	// a shard reproduces exactly the single-process runs for its range.
	Shard ShardRange
	// Artifacts is the store completed runs are reconstructed from on
	// resume. Required when Resume records any completed run; runs whose
	// evidence is missing or corrupt (ErrCorruptArtifact) are requeued
	// live rather than trusted.
	Artifacts *ArtifactStore
	// WorkerFold, when set, is called once per worker goroutine at
	// worker start with the worker's index (0..Workers-1); the returned
	// observer (nil to opt out for that worker) receives every completed
	// EventRun the worker produces — live and replayed — on the worker's
	// own goroutine, before the event is emitted downstream. This is the
	// per-worker analysis-fold seam: each worker folds into private,
	// unsynchronized state, and the caller merges the per-worker states
	// after the stream drains. The events channel closes only after
	// every worker has joined, so reading the folded states once Gather
	// returns is race-free.
	WorkerFold func(worker int) func(RunEvent)
}

// RunFailure records one failed app run in ContinueOnError mode.
type RunFailure struct {
	AppIndex int
	Err      error
	// Attempts is how many run attempts the app consumed before failing.
	Attempts int
}

// QuarantinedApp records one app that exhausted its retry budget in
// ContinueOnError mode: the fleet gave up on it without aborting, and the
// record says exactly how.
type QuarantinedApp struct {
	AppIndex int
	// Attempts is the number of run attempts consumed (== MaxAttempts
	// unless the fleet was cancelled mid-retry).
	Attempts int
	// LastErr is the error of the final attempt.
	LastErr error
}

// Accounting is the fleet's graceful-degradation ledger: every app of the
// corpus is accounted for as completed, skipped, quarantined, failed, or
// not run, so analysis figures can state what fraction of the corpus they
// cover instead of silently presenting a partial view as total.
type Accounting struct {
	// TotalApps is the corpus size handed to the fleet.
	TotalApps int
	// Completed counts successfully attributed runs.
	Completed int
	// SkippedARMOnly counts apps excluded by the §III-A ABI filter.
	SkippedARMOnly int
	// Quarantined counts apps that exhausted the retry budget.
	Quarantined int
	// Failed counts apps in Result.Failures (single-attempt failures, and
	// every failure in fail-fast mode).
	Failed int
	// NotRun counts apps never attempted (fleet cancelled or aborted).
	NotRun int
	// Attempts is the total number of run attempts, across retries.
	Attempts int
	// Retried counts apps that completed only after at least one failed
	// attempt — losses a single-attempt fleet would have suffered.
	Retried int
	// Backoff is the total retry backoff charged (virtual time when
	// Config.Clock is set, wall time otherwise).
	Backoff time.Duration
	// JournalSyncFailures counts journal append/fsync failures the fleet
	// observed. Each one is stream-fatal, but the ledger records that the
	// campaign degraded because durability broke — not because of any
	// app — so a merged campaign ledger can't hide a shard whose journal
	// silently stopped persisting.
	JournalSyncFailures int
}

// Coverage reports the fraction of the analyzable corpus (total minus the
// ABI-filtered apps, which are excluded by design rather than lost) whose
// runs completed. Figures built from a degraded fleet should cite it.
func (a Accounting) Coverage() float64 {
	denom := a.TotalApps - a.SkippedARMOnly
	if denom <= 0 {
		return 1
	}
	return float64(a.Completed) / float64(denom)
}

// Result aggregates a fleet run.
type Result struct {
	Runs           []*attribution.RunResult
	SkippedARMOnly int
	// Failures holds per-app errors when ContinueOnError is set.
	Failures []RunFailure
	// Quarantined lists apps that exhausted the retry budget
	// (ContinueOnError with MaxAttempts > 1), sorted by app index.
	Quarantined []QuarantinedApp
	// Accounting is the corpus-coverage ledger for the run.
	Accounting Accounting
	// CollectorReports / CollectorMalformed / CollectorDropped are the
	// collector's datagram totals when UseCollector is set.
	CollectorReports   int
	CollectorMalformed int
	CollectorDropped   int
	// Elapsed is the wall-clock duration of the fleet run.
	Elapsed time.Duration
}

// RunAll exercises every app in the source across the worker fleet and
// returns the per-run attribution results in app-index order. It is a thin
// batch wrapper over Stream+Gather; optional sinks observe events as they
// complete.
func RunAll(source AppSource, resolver nets.Resolver, cfg Config, sinks ...Sink) (*Result, error) {
	events, err := Stream(context.Background(), source, resolver, cfg)
	if err != nil {
		return nil, err
	}
	res, err := Gather(events, sinks...)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// applyFaultPlan maps a fault plan onto the emulator's hook points. Every
// magnitude derives deterministically from the plan's parameter, so the
// same seed always tears the same run in the same place.
func applyFaultPlan(opts *emulator.Options, plan faults.Plan) {
	if !plan.Faulted() {
		return
	}
	events := uint64(opts.Monkey.Events)
	if events == 0 {
		events = 1
	}
	switch plan.Class {
	case faults.EmulatorAbort:
		opts.AbortAfterEvents = 1 + int(plan.Param%events)
	case faults.StallRun:
		opts.StallAfterEvents = int(plan.Param % events)
		if opts.StallAfterEvents == 0 {
			opts.StallAfterEvents = 1
		}
	case faults.CaptureTruncate:
		// 1–15 trailing bytes: always mid-record (the smallest pcap
		// record is 16 header + ≥20 payload bytes), so the tear is
		// guaranteed to surface as a parse error, never as a silently
		// shorter capture.
		opts.TruncateCaptureTail = 1 + int(plan.Param%15)
	case faults.DatagramDrop:
		opts.DropDatagramEvery = 1 + int(plan.Param%3)
	case faults.HookFault:
		opts.HookFaultReports = 1 + int(plan.Param%4)
	}
}

// fleetClock serializes access to the fleet's shared virtual clock:
// nets.Clock itself is not safe for concurrent use, and every worker
// charges retry backoff to the same clock. A nil *fleetClock means no
// virtual clock is configured.
type fleetClock struct {
	mu sync.Mutex
	c  *nets.Clock
}

func newFleetClock(c *nets.Clock) *fleetClock {
	if c == nil {
		return nil
	}
	return &fleetClock{c: c}
}

// Advance charges d to the virtual clock.
func (fc *fleetClock) Advance(d time.Duration) {
	if fc == nil {
		return
	}
	fc.mu.Lock()
	fc.c.Advance(d)
	fc.mu.Unlock()
}

// runEnv bundles the per-worker execution state one app run needs:
// configuration, the worker's collector client, and telemetry. The zero
// extras (nil tel/collector) give the standalone RunOne path.
type runEnv struct {
	source    AppSource
	resolver  nets.Resolver
	cfg       Config
	store     *Store
	collector *Collector
	client    *Client
	tel       *obs.Telemetry
	// meters is the worker's local accumulator: the one place an attempt
	// charges the emulator, nets and xposed series. runOne snapshots it
	// into the attempt's delta and apply flushes it into tel at the end of
	// every attempt, so post-drain registry snapshots match the direct
	// atomics path exactly.
	meters *obs.Meters
	// app is the app the attempt last run got past the ABI filter (nil
	// when it did not get that far), kept for apply's detector
	// observation.
	app *synth.App
	// fold is the worker's Config.WorkerFold observer (nil when unset):
	// completed EventRuns fold into worker-private analysis state before
	// they are emitted.
	fold func(RunEvent)
	// capture is the worker's capture buffer: every attempt's emulator
	// run appends its pcap from capture[:0], and the buffer keeps the
	// capacity of the largest capture so far. It leaves the worker only
	// as emitted evidence (apply); nil until the next attempt takes one
	// from spare, the fleet's free list, or starts fresh.
	capture []byte
	spare   chan []byte
}

// runOne executes the full per-app worker job: pull the apk, filter by
// ABI, feed the LibRadar pass, exercise in the emulator, and run offline
// attribution. The returned evidence is non-nil only when
// cfg.EmitEvidence is set. attempt is 1-based; retries re-enter with the
// same index and a higher attempt so fault injection can distinguish
// transient from poison faults. parent, when non-nil, is the run's
// dispatch span; the stages hang their child spans off it. The returned
// meters are what the attempt charged, on every exit path — a failed
// attempt's telemetry is journaled like a completed run's.
func (env *runEnv) runOne(ctx context.Context, i, attempt int, parent *obs.Span) (_ *attribution.RunResult, _ *RunEvidence, meters *journal.RunMeters, _ bool, _ error) {
	source, resolver, cfg, store, collector, client := env.source, env.resolver, env.cfg, env.store, env.collector, env.client
	env.app = nil
	defer func() { meters = env.attemptMeters() }()
	app, err := source.GenerateApp(i)
	if err != nil {
		return nil, nil, nil, false, fmt.Errorf("generating app: %w", err)
	}
	encoded := app.Encoded
	sha := app.SHA256
	pack := app.APK
	if store != nil {
		// Round-trip through the database server: put, select (§III-A),
		// decode, and verify integrity.
		entry := StoreEntry{
			Package:    pack.Manifest.Package,
			Encoded:    encoded,
			SHA256:     sha,
			DexDate:    pack.DexDate,
			VTScanDate: pack.VTScanDate,
		}
		if err := store.Put(entry); err != nil {
			return nil, nil, nil, false, err
		}
		selected, err := store.Select(pack.Manifest.Package)
		if err != nil {
			return nil, nil, nil, false, err
		}
		if selected.SHA256 != sha {
			return nil, nil, nil, false, fmt.Errorf("store selected unexpected version of %s", pack.Manifest.Package)
		}
	}
	// ABI filter (§III-A): Libspector supports x86-compatible apps only.
	if !pack.SupportsX86() {
		return nil, nil, nil, true, nil
	}
	env.app = app

	opts := cfg.Emulator
	opts.Seed = cfg.BaseSeed + uint64(i)*2654435761
	opts.Telemetry = env.tel
	opts.Meters = env.meters
	opts.Span = parent
	if client != nil {
		opts.ReportSink = client.Send
	}
	if collector != nil && attempt > 1 {
		// Drop the failed attempt's datagrams so they don't pollute this
		// attempt's attribution input. That attempt ended with a barrier,
		// so every datagram it put on the wire has landed and the reset
		// clears all of it: no straggler can join this attempt's group.
		collector.Forget(sha)
	}
	if cfg.Faults != nil {
		applyFaultPlan(&opts, cfg.Faults.For(i, attempt))
	}
	if env.capture == nil {
		select {
		case env.capture = <-env.spare:
		default:
		}
	}
	opts.Capture = env.capture
	arts, err := emulator.RunContext(ctx, emulator.Installation{Program: app.Program, APKSHA256: sha}, resolver, opts)
	if err != nil {
		err = fmt.Errorf("emulator run: %w", err)
	} else {
		// Keep the buffer the capture grew into. Nothing this attempt
		// returns aliases it except the evidence, which carries it away
		// only when the run's event is emitted; attribution reads the
		// capture through a copy, so after a failed or diskless attempt
		// the next one can overwrite it.
		env.capture = arts.CaptureBytes[:0]
		if arts.HookErrors > 0 {
			err = fmt.Errorf("emulator run had %d hook errors", arts.HookErrors)
		} else if delivered := len(arts.RawReports); delivered < arts.ReportsSent {
			// Sequence-gap detection: the supervisor numbers its datagrams,
			// so in-flight loss shows up as delivered < sent instead of
			// silently shrinking the attribution input.
			err = fmt.Errorf("run lost %d supervisor datagrams (%d sent, %d delivered)",
				arts.ReportsSent-delivered, arts.ReportsSent, delivered)
		}
	}

	var reports []*xposed.Report
	if collector != nil {
		reports, err = env.drain(parent, i, attempt, pack.Manifest.Package, sha, arts, err)
	} else if err == nil {
		reports = arts.Reports
	}
	if err != nil {
		return nil, nil, nil, false, err
	}

	var evidence *RunEvidence
	if cfg.EmitEvidence {
		evidence = &RunEvidence{
			Meta: RunMeta{
				Package:  pack.Manifest.Package,
				SHA256:   sha,
				Category: pack.Manifest.Category,
				Events:   arts.EventsInjected,
				// The run's virtual clock, not wall time: identical seeds
				// must produce byte-identical meta.json.
				RecordedAt: arts.FinishedAt.UTC(),
			},
			APK:        encoded,
			Capture:    arts.CaptureBytes,
			RawReports: arts.RawReports,
			Trace:      arts.Trace,
		}
	}

	attrSpan := parent.Child(obs.SpanAttribution, env.tel.Now())
	run, err := cfg.Attributor.AnalyzeRun(attribution.RunInput{
		AppSHA:        sha,
		AppPackage:    pack.Manifest.Package,
		AppCategory:   pack.Manifest.Category,
		Capture:       bytes.NewReader(arts.CaptureBytes),
		Reports:       reports,
		Trace:         arts.Trace,
		Disassembly:   dex.DisassembleFile(app.Program.Dex),
		LocalAddr:     nets.DefaultLocalAddr,
		CollectorAddr: nets.DefaultCollectorAddr,
		CollectorPort: nets.DefaultCollectorPort,
	})
	if err != nil {
		attrSpan.Attr("outcome", "error").End(env.tel.Now())
		return nil, nil, nil, false, err
	}
	attrSpan.AttrInt("flows", int64(len(run.Flows))).
		AttrInt("matched", int64(run.Join.MatchedFlows)).
		End(env.tel.Now())
	return run, evidence, nil, false, nil
}

// drain ends an attempt that reached the emulator with its one collector
// barrier, on every exit path. Once the token lands, everything the
// attempt sent is in the collector: a failed attempt (runErr) keeps its
// own error, and its retry can Forget all of it; a good attempt's group
// is complete, so one read returns it — fewer reports than the run sent
// is loss, more is residue. The wait is wall time (datagrams arrive in
// real time) and resolves in microseconds on loopback.
func (env *runEnv) drain(parent *obs.Span, i, attempt int, pkg, sha string, arts *emulator.Artifacts, runErr error) ([]*xposed.Report, error) {
	var span *obs.Span
	if runErr == nil {
		span = parent.Child(obs.SpanDrain, env.tel.Now())
	}
	if err := env.collector.Barrier(env.client, fmt.Sprintf("%d/%d", i, attempt)); err != nil {
		env.tel.Counter(obs.MFleetDrainTimeouts).Inc()
		if runErr == nil {
			span.Attr("outcome", "timeout").End(env.tel.Now())
			return nil, err
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	got, sent := env.collector.ReportsFor(sha), len(arts.RawReports)
	switch {
	case len(got) < sent:
		span.Attr("outcome", "loss").End(env.tel.Now())
		return nil, fmt.Errorf("collector lost %d of %d reports for %s", sent-len(got), sent, pkg)
	case len(got) > sent:
		// The collector dedupes payloads per apk, so an overshoot means
		// residue that is NOT byte-identical to this run's reports — a
		// determinism violation. Fail the attempt loudly instead of
		// attributing from a polluted report set.
		span.Attr("outcome", "overshoot").End(env.tel.Now())
		return nil, fmt.Errorf("collector holds %d reports for %s, run sent %d (non-identical attempt residue)",
			len(got), pkg, sent)
	}
	span.AttrInt("reports", int64(sent)).End(env.tel.Now())
	return got, nil
}

// RunOne exercises a single app of the corpus outside the fleet and
// returns its attribution result. ARM-only apps (excluded by the §III-A
// filter) yield an error.
func RunOne(source AppSource, resolver nets.Resolver, cfg Config, index int) (*attribution.RunResult, error) {
	if cfg.Attributor == nil {
		return nil, fmt.Errorf("dispatch: config needs an attributor")
	}
	env := &runEnv{source: source, resolver: resolver, cfg: cfg, tel: cfg.Telemetry}
	run, _, _, skipped, err := env.runOne(context.Background(), index, 1, nil)
	if err != nil {
		return nil, fmt.Errorf("dispatch: app %d: %w", index, err)
	}
	if skipped {
		return nil, fmt.Errorf("dispatch: app %d ships only ARM native libraries (excluded by the ABI filter)", index)
	}
	return run, nil
}
