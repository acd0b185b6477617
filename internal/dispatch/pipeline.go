package dispatch

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"libspector/internal/attribution"
	"libspector/internal/dex"
	"libspector/internal/emulator"
	"libspector/internal/faults"
	"libspector/internal/journal"
	"libspector/internal/libradar"
	"libspector/internal/nets"
	"libspector/internal/obs"
	"libspector/internal/pcap"
	"libspector/internal/synth"
	"libspector/internal/xposed"
)

// AppSource supplies the corpus to analyze. synth.World implements it.
// A worker releases every app it is handed (synth.App.Release) once the
// app's lifecycle has applied, so GenerateApp must return an app nothing
// else holds.
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
	// Detector receives per-app package observations for the LibRadar
	// detection pass; may be nil.
	Detector *libradar.Detector
	// Attributor performs per-run offline analysis. Required.
	Attributor *attribution.Attributor
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
	// retry (attempt n waits RetryBackoff << (n-1)). The delay is charged
	// to Accounting.Backoff, the journal and the backoff counter, never
	// slept, so same-seed campaigns stay deterministic and fast.
	RetryBackoff time.Duration
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
	// Artifacts is the campaign's evidence store. When set, the worker
	// that completed a run saves its raw evidence (apk, capture, reports,
	// trace) there (§II-B3), after the run-completed journal record and
	// before the run's event is emitted; a failed save is stream-fatal.
	// Completed runs are reconstructed from it on resume: it is required
	// when Resume records any, and runs whose evidence is missing or
	// corrupt (ErrCorruptArtifact) are requeued live rather than trusted.
	Artifacts *ArtifactStore
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
	// Backoff is the total retry backoff charged, none of it slept.
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

// Result is a fleet run's ledger: it arrives exactly once, on the
// closing EventSummary, and is what Drain returns. It keeps no runs —
// those stream past the sinks — so its size is independent of the corpus
// but for the failure and quarantine rosters.
type Result struct {
	// Failures holds per-app errors when ContinueOnError is set.
	Failures []RunFailure
	// Quarantined lists apps that exhausted the retry budget
	// (ContinueOnError with MaxAttempts > 1), sorted by app index.
	Quarantined []QuarantinedApp
	// Accounting is the corpus-coverage ledger for the run.
	Accounting Accounting
	// CollectorReports / CollectorMalformed / CollectorDropped are the
	// collector's datagram totals.
	CollectorReports   int
	CollectorMalformed int
	CollectorDropped   int
	// Elapsed is the wall-clock duration of the fleet run.
	Elapsed time.Duration
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

// runEnv bundles the per-worker execution state one app run needs:
// configuration, the fleet's apk store and collector, the worker's
// collector client, and telemetry.
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
	// generated is the app the worker generated last; generate releases
	// it, and so does the worker's exit.
	generated *synth.App
	// capture is the worker's capture buffer: every attempt's emulator
	// run appends its pcap from capture[:0], and the buffer keeps the
	// capacity of the largest capture so far. The evidence that aliases
	// it is saved in apply, before the next attempt. The worker takes it
	// from idleCaptures when it starts and gives it back when it exits,
	// after its last run was saved and attributed, so a later fleet's
	// worker starts with the capacity this one grew.
	capture []byte
}

// idleCaptures holds capture buffers between fleets, one for each
// processor that may be capturing at once; like dex's idleFiles, it is
// not emptied at every GC as a sync.Pool would be. Without it every
// fleet's workers regrow their buffers from 64 KiB.
var idleCaptures = make(chan []byte, runtime.GOMAXPROCS(0))

// maxIdleCaptureBytes is the largest capture buffer kept for a later
// fleet. Growth doubles from 64 KiB, so a capture of up to 64 MiB leaves
// a buffer that is kept (the largest captures of 1 000-event campaigns at
// VolumeScale 4 are ~36 MB); a larger one is dropped.
const maxIdleCaptureBytes = 64 << 20

// takeCapture returns an idle capture buffer, or nil (the emulator then
// starts a fresh one).
func takeCapture() []byte {
	select {
	case b := <-idleCaptures:
		return b
	default:
		return nil
	}
}

// releaseCapture keeps b for a later fleet's worker unless it grew past
// maxIdleCaptureBytes or the list is full. The caller gives b up: the
// next worker to take it writes over its bytes.
func releaseCapture(b []byte) {
	if b == nil || cap(b) > maxIdleCaptureBytes {
		return
	}
	select {
	case idleCaptures <- b[:0]:
	default:
	}
}

// generate generates app i in place of the app the worker generated
// last, which it releases first: by the time the worker starts its next
// attempt or replay, the last app's lifecycle has applied, and nothing
// that outlives it aliases the app's dex file (DESIGN.md, "Methods live
// in per-file arenas"). It clears app, which pointed at the released app
// or at nothing.
func (env *runEnv) generate(i int) (*synth.App, error) {
	env.release()
	app, err := env.source.GenerateApp(i)
	env.generated = app
	return app, err
}

// release releases the app the worker generated last, if any.
func (env *runEnv) release() {
	if env.generated != nil {
		env.generated.Release()
	}
	env.app, env.generated = nil, nil
}

// runOne executes the full per-app worker job: pull the apk through the
// store, filter by ABI, exercise in the emulator with every report sent
// to the collector, and run offline attribution over the collector's
// copy. The returned evidence is non-nil only when cfg.Artifacts is
// set. attempt is 1-based; retries re-enter with the same index and a
// higher attempt so fault injection can distinguish transient from poison
// faults. parent, when non-nil, is the run's
// dispatch span; the stages hang their child spans off it. The returned
// meters are what the attempt charged, on every exit path — a failed
// attempt's telemetry is journaled like a completed run's.
func (env *runEnv) runOne(ctx context.Context, i, attempt int, parent *obs.Span) (_ *attribution.RunResult, _ *RunEvidence, meters *journal.RunMeters, _ bool, _ error) {
	resolver, cfg, store := env.resolver, env.cfg, env.store
	defer func() { meters = env.attemptMeters() }()
	app, err := env.generate(i)
	if err != nil {
		return nil, nil, nil, false, fmt.Errorf("generating app: %w", err)
	}
	encoded := app.Encoded
	sha := app.SHA256
	pack := app.APK
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
	opts.ReportSink = env.client.Send
	if cfg.Faults != nil {
		applyFaultPlan(&opts, cfg.Faults.For(i, attempt))
	}
	opts.Capture = env.capture
	arts, err := emulator.RunContext(ctx, emulator.Installation{Program: app.Program, APKSHA256: sha}, resolver, opts)
	if err != nil {
		err = fmt.Errorf("emulator run: %w", err)
	} else {
		// Keep the buffer the capture grew into. Attribution reads it in
		// place, but the RunResult it returns never aliases it; the
		// evidence alone does, and apply has saved it before the worker's
		// next attempt overwrites it.
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

	reports, err := env.drain(parent, i, attempt, pack.Manifest.Package, sha, arts, err)
	if err != nil {
		return nil, nil, nil, false, err
	}

	var evidence *RunEvidence
	if cfg.Artifacts != nil {
		evidence = &RunEvidence{
			Meta: RunMeta{
				Package:  pack.Manifest.Package,
				SHA256:   sha,
				Category: pack.Manifest.Category,
				Events:   arts.EventsInjected,
				// The run's virtual clock, not wall time: identical seeds
				// must produce byte-identical run files.
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
		Capture:       pcap.InPlace(arts.CaptureBytes),
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
// own error; a good attempt's group is complete, so one read returns it —
// fewer reports than the run sent is loss (a malformed report is counted
// by the collector and never grouped), more is residue. Either way the
// group is then forgotten, so the collector holds no app's reports past
// its attempt and a retry starts from an empty group. The wait is wall
// time (datagrams arrive in real time) and resolves in microseconds on
// loopback.
func (env *runEnv) drain(parent *obs.Span, i, attempt int, pkg, sha string, arts *emulator.Artifacts, runErr error) ([]*xposed.Report, error) {
	defer env.collector.Forget(sha)
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
