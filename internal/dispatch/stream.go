package dispatch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"libspector/internal/attribution"
	"libspector/internal/faults"
	"libspector/internal/journal"
	"libspector/internal/nets"
	"libspector/internal/obs"
)

// The streaming pipeline: instead of materializing every RunResult for the
// whole corpus (impossible at the paper's 25,000-app scale, §II-B), the
// fleet emits per-app events over a bounded channel in completion order.
// Backpressure equals the worker count — at most one undelivered result per
// worker before the fleet stalls — and the whole pipeline is cancellable
// through the caller's context.

// EventKind discriminates stream events.
type EventKind int

const (
	// EventRun is a completed, attributed app run.
	EventRun EventKind = iota + 1
	// EventSkip is an app excluded by the §III-A ABI filter.
	EventSkip
	// EventFailure is one failed app run.
	EventFailure
	// EventQuarantine is an app that exhausted its retry budget in
	// ContinueOnError mode.
	EventQuarantine
	// EventSummary is the final event emitted before the channel closes.
	EventSummary
)

// String names the kind for progress displays.
func (k EventKind) String() string {
	switch k {
	case EventRun:
		return "run"
	case EventSkip:
		return "skip"
	case EventFailure:
		return "failure"
	case EventQuarantine:
		return "quarantine"
	case EventSummary:
		return "summary"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// RunEvidence bundles one run's raw artifacts for persistence sinks. It is
// attached to EventRun events only when Config.EmitEvidence is set, so the
// common analysis-only path never pays for carrying apk bytes downstream.
type RunEvidence struct {
	Meta       RunMeta
	APK        []byte
	Capture    []byte
	RawReports [][]byte
	Trace      map[string]struct{}
}

// StreamSummary carries the fleet-level counters; it arrives exactly once,
// as the payload of the closing EventSummary.
type StreamSummary struct {
	// Completed counts successfully attributed runs.
	Completed int
	// SkippedARMOnly counts apps excluded by the ABI filter.
	SkippedARMOnly int
	// Failures lists per-app errors, sorted by app index for deterministic
	// reporting regardless of worker interleaving.
	Failures []RunFailure
	// Quarantined lists apps that exhausted the retry budget
	// (ContinueOnError with MaxAttempts > 1), sorted by app index.
	Quarantined []QuarantinedApp
	// Accounting is the corpus-coverage ledger: every app accounted for as
	// completed, skipped, quarantined, failed, or not run.
	Accounting Accounting
	// CollectorReports / CollectorMalformed / CollectorDropped are the
	// collector's datagram totals when Config.UseCollector is set.
	CollectorReports   int
	CollectorMalformed int
	CollectorDropped   int
	// Elapsed is the wall-clock duration of the fleet run.
	Elapsed time.Duration
	// Err is the stream-fatal error: the context's error after a
	// cancellation, the first (lowest-index) app error in fail-fast mode,
	// or an infrastructure failure such as a worker failing to dial the
	// collector. Nil after a clean drain.
	Err error
}

// RunEvent is one per-app outcome, emitted in completion order. Exactly one
// of Run/Err/Summary is set, according to Kind; AppIndex is valid for
// per-app kinds (and -1 on the summary).
type RunEvent struct {
	Kind     EventKind
	AppIndex int
	// Run is the attribution result (EventRun).
	Run *attribution.RunResult
	// Evidence carries the raw run artifacts when Config.EmitEvidence is
	// set (EventRun).
	Evidence *RunEvidence
	// Err is the per-app failure (EventFailure, EventQuarantine — the
	// final attempt's error).
	Err error
	// Quarantine carries the quarantine record (EventQuarantine).
	Quarantine *QuarantinedApp
	// Summary closes the stream (EventSummary).
	Summary *StreamSummary
}

// Sink consumes stream events: live progress printers, artifact
// persistence, incremental aggregation (analysis.Accumulator,
// analysis.DatasetBuilder). Sinks are invoked sequentially from the
// consuming goroutine, in event order — a Sink may therefore use
// single-goroutine state such as a symtab.Table without locking.
type Sink interface {
	Consume(ev RunEvent) error
}

// SinkFunc adapts a function to a Sink.
type SinkFunc func(ev RunEvent) error

// Consume implements Sink.
func (f SinkFunc) Consume(ev RunEvent) error { return f(ev) }

// dialCollector dials a worker's collector client; a package variable so
// tests can inject dial failures.
var dialCollector = NewClient

// Stream exercises every app in the source across the worker fleet and
// returns a bounded channel of per-app events in completion order, closed
// after a final EventSummary. The caller must drain the channel until it
// closes (Gather does this); cancelling ctx stops the fleet promptly —
// each worker finishes at most its one in-flight app — after which the
// remaining buffered events and the summary are still delivered to a
// draining consumer.
func Stream(ctx context.Context, source AppSource, resolver nets.Resolver, cfg Config) (<-chan RunEvent, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if source == nil {
		return nil, fmt.Errorf("dispatch: nil app source")
	}
	if resolver == nil {
		return nil, fmt.Errorf("dispatch: nil resolver")
	}
	if cfg.Attributor == nil {
		return nil, fmt.Errorf("dispatch: config needs an attributor")
	}
	if cfg.Faults != nil && cfg.Faults.Enabled(faults.StallRun) && cfg.RunTimeout <= 0 {
		// A stalled run never returns on its own; refusing the config up
		// front beats a fleet that silently hangs forever.
		return nil, fmt.Errorf("dispatch: stall-run faults need a RunTimeout to reclaim hung workers")
	}
	if cfg.Resume != nil && cfg.Artifacts == nil {
		for _, rec := range cfg.Resume.Outcomes {
			if rec.Outcome == journal.OutcomeRun {
				// Completed runs are reconstructed from stored evidence, not
				// re-run; without the store their results are unrecoverable.
				return nil, fmt.Errorf("dispatch: resuming journaled runs needs the artifact store")
			}
		}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	lo, hi, err := cfg.Shard.bounds(source.NumApps())
	if err != nil {
		return nil, err
	}

	var collector *Collector
	if cfg.UseCollector {
		var err error
		collector, err = NewCollector(cfg.Telemetry)
		if err != nil {
			return nil, err
		}
	}
	var store *Store
	if cfg.UseStore {
		store = NewStore()
	}

	f := &fleetRun{
		ctx:       ctx,
		cfg:       cfg,
		source:    source,
		resolver:  resolver,
		collector: collector,
		store:     store,
		clk:       newFleetClock(cfg.Clock),
		tel:       cfg.Telemetry,
		// One buffered slot per worker is the backpressure budget.
		events: make(chan RunEvent, workers),
		stop:   make(chan struct{}),
	}
	f.tel.Gauge(obs.MFleetWorkers).Set(int64(workers))
	f.tel.Gauge(obs.MFleetWorkersBusy)
	f.tel.Counter(obs.MFleetApps).Add(int64(hi - lo))
	// Pre-register the outcome and loss series so a live /debug/vars
	// snapshot carries them at zero before the first event lands.
	for _, name := range []string{
		obs.MFleetCompleted, obs.MFleetSkipped, obs.MFleetFailed,
		obs.MFleetQuarantined, obs.MFleetAttempts, obs.MFleetRetries,
		obs.MFleetBackoffMS, obs.MCollectorReceived, obs.MCollectorMalformed,
		obs.MCollectorDropped,
	} {
		f.tel.Counter(name)
	}
	if cfg.Resume != nil {
		f.tel.Counter(obs.MResumeReplayed)
		f.tel.Counter(obs.MResumeRequeued)
	}
	go f.run(workers, lo, hi)
	return f.events, nil
}

// RunCollector is the Sink that retains every completed run — what turns
// Drain's ledger-only Result into the batch shape. A campaign that only
// needs folded aggregates (a shard) leaves it out and never holds more
// than the in-flight runs.
type RunCollector struct {
	runs []indexedRun
}

type indexedRun struct {
	idx int
	run *attribution.RunResult
}

// Consume implements Sink.
func (c *RunCollector) Consume(ev RunEvent) error {
	if ev.Kind == EventRun {
		c.runs = append(c.runs, indexedRun{ev.AppIndex, ev.Run})
	}
	return nil
}

// Runs returns the retained runs in app-index order.
func (c *RunCollector) Runs() []*attribution.RunResult {
	sort.Slice(c.runs, func(i, j int) bool { return c.runs[i].idx < c.runs[j].idx })
	var out []*attribution.RunResult
	for _, r := range c.runs {
		out = append(out, r.run)
	}
	return out
}

// Drain consumes a stream to its end, forwarding every event to the sinks
// in order, and returns the closing summary as a Result without Runs. On
// error the returned Result still holds whatever the summary reported, so
// callers can account for a partial fleet after a cancellation.
func Drain(events <-chan RunEvent, sinks ...Sink) (*Result, error) {
	var summary *StreamSummary
	var sinkErr error
	for ev := range events {
		for _, s := range sinks {
			if s == nil {
				continue
			}
			if err := s.Consume(ev); err != nil && sinkErr == nil {
				sinkErr = err
			}
		}
		if ev.Kind == EventSummary {
			summary = ev.Summary
		}
	}
	res := &Result{}
	if summary != nil {
		res.SkippedARMOnly = summary.SkippedARMOnly
		res.Failures = summary.Failures
		res.Quarantined = summary.Quarantined
		res.Accounting = summary.Accounting
		res.CollectorReports = summary.CollectorReports
		res.CollectorMalformed = summary.CollectorMalformed
		res.CollectorDropped = summary.CollectorDropped
		res.Elapsed = summary.Elapsed
	}
	switch {
	case summary == nil:
		return res, fmt.Errorf("dispatch: stream cancelled before its summary was delivered")
	case summary.Err != nil:
		return res, summary.Err
	case sinkErr != nil:
		return res, sinkErr
	}
	return res, nil
}

// Gather is Drain plus a RunCollector: it materializes the batch Result
// with runs in app-index order — the bridge from the streaming API back
// to the original batch shape. On error the returned Result still holds
// whatever completed before the stream ended.
func Gather(events <-chan RunEvent, sinks ...Sink) (*Result, error) {
	collect := &RunCollector{}
	res, err := Drain(events, append(sinks[:len(sinks):len(sinks)], collect)...)
	res.Runs = collect.Runs()
	return res, err
}

// fleetRun is the shared state of one streaming fleet execution.
type fleetRun struct {
	ctx       context.Context
	cfg       Config
	source    AppSource
	resolver  nets.Resolver
	collector *Collector
	store     *Store
	events    chan RunEvent

	// stop is closed on the first stream-fatal error so the feeder stops
	// handing out jobs without waiting for the caller's context.
	stop     chan struct{}
	stopOnce sync.Once

	// clk wraps cfg.Clock behind a mutex: the virtual clock absorbs
	// retry backoff and collector-drain waits from every worker. Nil
	// when no virtual clock is configured.
	clk *fleetClock
	// tel is the fleet's telemetry (nil-safe when unset).
	tel *obs.Telemetry

	mu           sync.Mutex
	fatal        error
	fatalIdx     int
	failures     []RunFailure
	quarantined  []QuarantinedApp
	completed    int
	skipped      int
	attempts     int
	retried      int
	backoff      time.Duration
	journalFails int
}

// abort records a stream-fatal error (lowest app index wins, so fail-fast
// reporting stays deterministic when one app is bad) and stops the feeder.
func (f *fleetRun) abort(idx int, err error) {
	f.mu.Lock()
	if f.fatal == nil || idx < f.fatalIdx {
		f.fatal, f.fatalIdx = err, idx
	}
	f.mu.Unlock()
	f.stopOnce.Do(func() { close(f.stop) })
}

func (f *fleetRun) stopped() bool {
	select {
	case <-f.stop:
		return true
	default:
		return false
	}
}

// emit delivers one event, giving up only when the caller's context is
// cancelled and the consumer has stopped draining.
func (f *fleetRun) emit(ev RunEvent) {
	select {
	case f.events <- ev:
	case <-f.ctx.Done():
		// The consumer may still be draining the cancelled stream for
		// partial results; give the event one bounded chance to land.
		select {
		case f.events <- ev:
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// job is one unit of worker work: an app index, plus — when resuming —
// either its journaled terminal outcome (replay instead of re-running) or
// a requeue marker (the crash caught it in flight; run it live and clear
// any stale collector state first).
type job struct {
	idx      int
	rec      *journal.AppOutcome
	retries  []journal.RetryInfo
	requeued bool
}

func (f *fleetRun) run(workers, lo, hi int) {
	numApps := hi - lo
	start := time.Now()
	defer close(f.events)
	if f.collector != nil {
		defer func() { _ = f.collector.Close() }()
	}

	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f.worker(w, jobs)
		}(w)
	}
feed:
	for i := lo; i < hi; i++ {
		j := job{idx: i}
		if f.cfg.Resume != nil {
			if rec, done := f.cfg.Resume.Outcomes[i]; done {
				r := rec
				j.rec = &r
				j.retries = f.cfg.Resume.Retries[i]
			} else if f.cfg.Resume.InFlight[i] {
				j.requeued = true
			}
		}
		select {
		case jobs <- j:
		case <-f.ctx.Done():
			break feed
		case <-f.stop:
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	f.mu.Lock()
	acct := Accounting{
		TotalApps:           numApps,
		Completed:           f.completed,
		SkippedARMOnly:      f.skipped,
		Quarantined:         len(f.quarantined),
		Failed:              len(f.failures),
		Attempts:            f.attempts,
		Retried:             f.retried,
		Backoff:             f.backoff,
		JournalSyncFailures: f.journalFails,
	}
	acct.NotRun = numApps - acct.Completed - acct.SkippedARMOnly - acct.Quarantined - acct.Failed
	if acct.NotRun < 0 {
		acct.NotRun = 0
	}
	sum := &StreamSummary{
		Completed:      f.completed,
		SkippedARMOnly: f.skipped,
		Failures:       f.failures,
		Quarantined:    f.quarantined,
		Accounting:     acct,
		Elapsed:        time.Since(start),
		Err:            f.fatal,
	}
	f.mu.Unlock()
	sort.Slice(sum.Failures, func(i, j int) bool { return sum.Failures[i].AppIndex < sum.Failures[j].AppIndex })
	sort.Slice(sum.Quarantined, func(i, j int) bool { return sum.Quarantined[i].AppIndex < sum.Quarantined[j].AppIndex })
	if sum.Err == nil {
		sum.Err = f.ctx.Err()
	}
	if f.collector != nil {
		sum.CollectorReports, sum.CollectorMalformed, sum.CollectorDropped = f.collector.Totals()
	}
	// fleet.summary is deterministic but topology-bound (it carries the
	// resolved shard range), so it streams without entering the JSONL log.
	if bus := f.tel.Bus(); bus.Active() {
		bus.Publish(obs.Event{
			Type: obs.EvFleetSummary, TS: f.tel.Now(), App: -1, Shard: -1,
			Lo: lo, Hi: hi,
			Counts: acct.EventCounts(),
		})
	}
	f.emit(RunEvent{Kind: EventSummary, AppIndex: -1, Summary: sum})
}

// worker pulls app indices until the jobs channel closes or the stream
// stops. A collector-dial failure is an infrastructure fault: it aborts the
// stream as one structured failure instead of silently consuming — and
// thereby poisoning — every remaining job.
func (f *fleetRun) worker(w int, jobs <-chan job) {
	var client *Client
	if f.collector != nil {
		var err error
		client, err = dialCollector(f.collector.Addr())
		if err != nil {
			f.abort(-1, fmt.Errorf("dispatch: worker failed to dial collector: %w", err))
			return
		}
		defer func() { _ = client.Close() }()
	}
	env := &runEnv{
		source:    f.source,
		resolver:  f.resolver,
		cfg:       f.cfg,
		store:     f.store,
		collector: f.collector,
		client:    client,
		clk:       f.clk,
		tel:       f.tel,
		meters:    obs.NewMeters(),
	}
	if f.cfg.WorkerFold != nil {
		env.fold = f.cfg.WorkerFold(w)
	}
	busy := f.tel.Gauge(obs.MFleetWorkersBusy)
	total := f.tel.Gauge(obs.MFleetWorkers)
	for j := range jobs {
		if f.ctx.Err() != nil || f.stopped() {
			return
		}
		busy.Add(1)
		// Utilization is a wall-only reading: it depends on scheduler
		// interleaving, so it streams in wall mode and never appears in a
		// deterministic run's events.
		if !f.tel.Virtual() {
			if bus := f.tel.Bus(); bus.Active() {
				bus.Publish(obs.Event{
					Type: obs.EvFleetUtilization, TS: f.tel.Now(), App: -1, Shard: -1,
					Workers: int(total.Value()), WorkersBusy: int(busy.Value()),
				})
			}
		}
		if j.rec != nil {
			f.replayApp(env, j.idx, *j.rec, j.retries)
		} else {
			f.runApp(env, j.idx, j.requeued)
		}
		busy.Add(-1)
	}
}

// TraceID names one app's trace: zero-padded so traces sort by app
// index in the serialized JSONL.
func TraceID(i int) string { return fmt.Sprintf("app-%05d", i) }

// journalAppend records one lifecycle event. An append failure is
// stream-fatal: continuing past it would leave a journal that lies about
// campaign history, so the fleet aborts instead — and the degradation
// ledger counts it, so the cause (durability, not apps) survives into
// the merged campaign Accounting. Returns false when the caller must
// stop.
func (f *fleetRun) journalAppend(err error) bool {
	if err == nil {
		return true
	}
	f.noteJournalFailure()
	if errors.Is(err, journal.ErrTornWrite) {
		// A torn write only ever comes from the injected tear fault, and
		// the tear breaks the writer for every worker still in flight.
		// Whichever worker's append loses that race must not strip the
		// fault identity from the campaign error (abort keeps the lowest
		// app index, and a lifecycle append reports as -1): callers — and
		// the resume tests — distinguish an injected crash from a real
		// durability failure with errors.Is(err, faults.ErrInjected).
		f.abort(-1, fmt.Errorf("dispatch: journal append: %w: %w", faults.ErrInjected, err))
		return false
	}
	f.abort(-1, fmt.Errorf("dispatch: journal append: %w", err))
	return false
}

// noteJournalFailure records one journal durability failure in the
// ledger.
func (f *fleetRun) noteJournalFailure() {
	f.mu.Lock()
	f.journalFails++
	f.mu.Unlock()
}

// crashFault fires the journal crash classes on a run that just
// completed: JournalCrash records the completion durably, then dies
// before the event (and therefore its evidence) reaches any sink — the
// journal says done, the store disagrees. JournalTear dies mid-append,
// leaving a torn frame for recovery to truncate. Both abort the stream
// the way a killed process would; returns true when the run was consumed
// by a crash.
func (f *fleetRun) crashFault(i, attempts int, sha string, backoff time.Duration, backoffMS int64, meters *journal.RunMeters, requeued bool) bool {
	if f.cfg.Journal == nil || f.cfg.Faults == nil {
		return false
	}
	// A requeued run is the takeover of a crash that already fired: the
	// host that died is gone, and the healthy host re-running the app
	// must be allowed to commit — otherwise a crash-faulted app could
	// never converge, no matter how many takeovers the budget grants.
	if requeued {
		return false
	}
	// Attempt 1 on purpose: the crash models the host dying after the
	// run, not a retryable run fault, so it must not evaporate just
	// because the run itself needed a retry.
	plan := f.cfg.Faults.For(i, 1)
	switch plan.Class {
	case faults.JournalCrash:
		// The fault's contract is "commit durably, then die": the record
		// must actually reach the disk before the injected death, or
		// resume would correctly requeue the app and the test would be
		// proving nothing. A failed append or fsync here is therefore a
		// real durability failure riding under the injection — surface it
		// in the ledger and the abort error instead of discarding it.
		err := f.cfg.Journal.RunCompletedMetered(i, journal.OutcomeRun, sha, attempts, backoff, backoffMS, "", meters)
		if err == nil {
			err = f.cfg.Journal.Sync()
		}
		if err != nil {
			f.noteJournalFailure()
			f.abort(i, fmt.Errorf("dispatch: app %d: journal-crash commit failed: %w", i, err))
			return true
		}
		f.abort(i, fmt.Errorf("dispatch: app %d: journal-crash %w after commit", i, faults.ErrInjected))
		return true
	case faults.JournalTear:
		f.cfg.Journal.InjectTear()
		err := f.cfg.Journal.RunCompleted(i, journal.OutcomeRun, sha, attempts, backoff, backoffMS, "")
		f.abort(i, fmt.Errorf("dispatch: app %d: journal-tear %w: %v", i, faults.ErrInjected, err))
		return true
	}
	return false
}

// runApp drives one app through its attempt budget: run, and on failure
// retry with exponential backoff until the budget is spent. Exhausting the
// budget quarantines the app in ContinueOnError mode (the fleet keeps
// going, the app is reported with its attempt count and last error) and
// aborts the stream otherwise. With a journal configured, the app's
// lifecycle is recorded durably: started before the first attempt, its
// terminal outcome — with the retry accounting it consumed — after the
// collector drain. requeued marks a run handed back by resume.
func (f *fleetRun) runApp(env *runEnv, i int, requeued bool) {
	maxAttempts := f.cfg.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	if f.cfg.Journal != nil {
		if !f.journalAppend(f.cfg.Journal.RunStarted(i)) {
			return
		}
	}
	// Run-lifecycle bus events carry App but never a shard index: the
	// same app lands in different shards at different shard counts, and
	// the JSONL event log must stay byte-identical across them.
	if bus := f.tel.Bus(); bus.Active() {
		bus.Publish(obs.Event{Type: obs.EvRunStarted, TS: f.tel.Now(), App: i, Shard: -1})
	}
	// The app's dispatch root span covers every attempt, the backoff
	// between them, and the stage children runOne hangs off it. Host-side
	// timestamps come from the telemetry time source (a fixed epoch in
	// deterministic mode), so the trace serializes byte-identically under
	// a virtual clock.
	root := f.tel.Trace(TraceID(i)).Span(obs.SpanDispatch, f.tel.Now())
	root.AttrInt("app", int64(i))
	finish := func(outcome string, attempts int) {
		root.Attr("outcome", outcome).AttrInt("attempts", int64(attempts)).End(f.tel.Now())
	}
	var lastErr error
	attemptsUsed := 0
	// Per-app backoff tallies mirror the fleet totals so the journal can
	// replicate exactly what this app charged (BackoffMS carries the
	// per-wait millisecond truncation the live metrics counter applies).
	var appBackoff time.Duration
	var appBackoffMS int64
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		ctx, cancel := f.attemptCtx()
		run, evidence, meters, skip, err := env.runOne(ctx, i, attempt, requeued, root)
		cancel()
		attemptsUsed = attempt
		f.mu.Lock()
		f.attempts++
		f.mu.Unlock()
		f.tel.Counter(obs.MFleetAttempts).Inc()
		switch {
		case err == nil && skip:
			if f.cfg.Journal != nil {
				if !f.journalAppend(f.cfg.Journal.RunCompleted(i, journal.OutcomeSkip, "", attemptsUsed, appBackoff, appBackoffMS, "")) {
					return
				}
			}
			f.mu.Lock()
			f.skipped++
			f.mu.Unlock()
			f.tel.Counter(obs.MFleetSkipped).Inc()
			if bus := f.tel.Bus(); bus.Active() {
				bus.Publish(obs.Event{Type: obs.EvRunSkipped, TS: f.tel.Now(), App: i, Shard: -1, Attempt: attemptsUsed})
			}
			finish("skip", attemptsUsed)
			f.emit(RunEvent{Kind: EventSkip, AppIndex: i})
			return
		case err == nil:
			if f.crashFault(i, attemptsUsed, run.AppSHA, appBackoff, appBackoffMS, meters, requeued) {
				return
			}
			if f.cfg.Journal != nil {
				if !f.journalAppend(f.cfg.Journal.RunCompletedMetered(i, journal.OutcomeRun, run.AppSHA, attemptsUsed, appBackoff, appBackoffMS, "", meters)) {
					return
				}
			}
			f.mu.Lock()
			f.completed++
			if attempt > 1 {
				f.retried++
			}
			f.mu.Unlock()
			f.tel.Counter(obs.MFleetCompleted).Inc()
			if attempt > 1 {
				f.tel.Counter(obs.MFleetRetries).Inc()
			}
			if bus := f.tel.Bus(); bus.Active() {
				bev := obs.Event{
					Type: obs.EvRunCompleted, TS: f.tel.Now(), App: i, Shard: -1,
					Attempt: attemptsUsed, Package: run.AppPackage,
					Flows: int64(len(run.Flows)),
				}
				if meters != nil {
					bev.VirtualMS = meters.VirtualMS
					bev.TCPBytes = meters.TCPWireBytes
					bev.UDPBytes = meters.UDPWireBytes
					bev.DNSBytes = meters.DNSWireBytes
					bev.DroppedDatagrams = meters.DroppedGrams
				}
				bus.Publish(bev)
			}
			finish("run", attemptsUsed)
			ev := RunEvent{Kind: EventRun, AppIndex: i, Run: run, Evidence: evidence}
			if env.fold != nil {
				env.fold(ev)
			}
			f.emit(ev)
			return
		}
		lastErr = err
		if f.ctx.Err() != nil {
			// The fleet is being cancelled: the attempt failed because (or
			// regardless) of it, and retrying against a dead context would
			// only burn the budget on context errors.
			break
		}
		if attempt < maxAttempts {
			if f.cfg.Journal != nil {
				// The retry record exists for event-log fidelity: replay
				// republishes run.retry with the original attempt's error
				// text, which nothing else persists.
				if !f.journalAppend(f.cfg.Journal.RunRetry(i, attempt, lastErr.Error())) {
					return
				}
			}
			if bus := f.tel.Bus(); bus.Active() {
				bus.Publish(obs.Event{Type: obs.EvRunRetry, TS: f.tel.Now(), App: i, Shard: -1, Attempt: attempt, Error: lastErr.Error()})
			}
			d, ms, ok := f.backoffWait(attempt)
			appBackoff += d
			appBackoffMS += ms
			if !ok {
				break
			}
		}
	}
	// Budget exhausted (or cancelled mid-retry). Quarantine is meaningful
	// only when the fleet keeps running and actually retried; a
	// single-attempt or fail-fast fleet reports plain failures, preserving
	// the original semantics.
	//
	// A failure observed while the fleet is being cancelled is the
	// shutdown's artifact, not the app's history: journaling it as a
	// terminal outcome would make every resume replay a "context
	// canceled" failure forever. Skip the terminal record — the started
	// record leaves the app in-flight, so resume re-runs it.
	interrupted := f.ctx.Err() != nil
	if f.cfg.ContinueOnError && maxAttempts > 1 {
		if f.cfg.Journal != nil && !interrupted {
			// Persisted so poison apps stay quarantined across restarts
			// instead of burning the resumed fleet's budget again.
			if !f.journalAppend(f.cfg.Journal.RunQuarantined(i, attemptsUsed, appBackoff, appBackoffMS, lastErr.Error())) {
				return
			}
		}
		q := QuarantinedApp{AppIndex: i, Attempts: attemptsUsed, LastErr: lastErr}
		f.mu.Lock()
		f.quarantined = append(f.quarantined, q)
		f.mu.Unlock()
		f.tel.Counter(obs.MFleetQuarantined).Inc()
		if bus := f.tel.Bus(); bus.Active() {
			bus.Publish(obs.Event{Type: obs.EvRunQuarantined, TS: f.tel.Now(), App: i, Shard: -1, Attempt: attemptsUsed, Error: lastErr.Error()})
		}
		finish("quarantine", attemptsUsed)
		f.emit(RunEvent{Kind: EventQuarantine, AppIndex: i, Err: lastErr, Quarantine: &q})
		return
	}
	if f.cfg.Journal != nil && !interrupted {
		if !f.journalAppend(f.cfg.Journal.RunCompleted(i, journal.OutcomeFailed, "", attemptsUsed, appBackoff, appBackoffMS, lastErr.Error())) {
			return
		}
	}
	f.mu.Lock()
	f.failures = append(f.failures, RunFailure{AppIndex: i, Err: lastErr, Attempts: attemptsUsed})
	f.mu.Unlock()
	f.tel.Counter(obs.MFleetFailed).Inc()
	if bus := f.tel.Bus(); bus.Active() {
		bus.Publish(obs.Event{Type: obs.EvRunFailed, TS: f.tel.Now(), App: i, Shard: -1, Attempt: attemptsUsed, Error: lastErr.Error()})
	}
	finish("failure", attemptsUsed)
	if !f.cfg.ContinueOnError {
		f.abort(i, fmt.Errorf("dispatch: app %d: %w", i, lastErr))
	}
	f.emit(RunEvent{Kind: EventFailure, AppIndex: i, Err: lastErr})
}

// attemptCtx derives one attempt's context, applying the per-run deadline
// when configured.
func (f *fleetRun) attemptCtx() (context.Context, context.CancelFunc) {
	if f.cfg.RunTimeout > 0 {
		return context.WithTimeout(f.ctx, f.cfg.RunTimeout)
	}
	return context.WithCancel(f.ctx)
}

// backoffWait charges the delay before the next attempt: RetryBackoff
// doubled per completed attempt. With a virtual retry clock configured the
// wait is advanced on the clock (serialized — nets.Clock is not safe for
// concurrent use) instead of slept, so deterministic experiments never
// block on wall time. Returns the charged duration and the milliseconds
// charged to the metrics counter (the journal replicates both), and false
// when the fleet was cancelled while waiting.
func (f *fleetRun) backoffWait(attempt int) (time.Duration, int64, bool) {
	if f.cfg.RetryBackoff <= 0 {
		return 0, 0, f.ctx.Err() == nil && !f.stopped()
	}
	shift := attempt - 1
	if shift > 16 {
		shift = 16
	}
	d := f.cfg.RetryBackoff << shift
	f.mu.Lock()
	f.backoff += d
	f.mu.Unlock()
	ms := d.Milliseconds()
	f.tel.Counter(obs.MFleetBackoffMS).Add(ms)
	if f.clk != nil {
		f.clk.Advance(d)
		return d, ms, f.ctx.Err() == nil && !f.stopped()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return d, ms, !f.stopped()
	case <-f.ctx.Done():
		return d, ms, false
	case <-f.stop:
		return d, ms, false
	}
}
