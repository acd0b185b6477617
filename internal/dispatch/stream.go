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

// RunEvidence bundles one run's raw artifacts for the artifact store
// (Config.Artifacts). A fleet worker builds it and saves it itself, before
// the run's event is emitted, so its byte slices — Capture is the worker's
// own capture buffer — never reach the stream.
type RunEvidence struct {
	Meta       RunMeta
	APK        []byte
	Capture    []byte
	RawReports [][]byte
	Trace      map[string]struct{}
}

// RunEvent is one per-app outcome, emitted in completion order, or the
// closing summary. Run, Err and Summary are set according to Kind;
// AppIndex is valid for per-app kinds (and -1 on the summary).
type RunEvent struct {
	Kind     EventKind
	AppIndex int
	// Run is the attribution result (EventRun).
	Run *attribution.RunResult
	// Evidence is the run's raw artifacts, for ArtifactStore.Consume
	// (EventRun). Only callers that build events themselves set it: a
	// fleet saves its evidence on the worker and emits nil.
	Evidence *RunEvidence
	// Err is the per-app failure (EventFailure, EventQuarantine — the
	// final attempt's error) or, on the summary, the stream-fatal error:
	// the context's error after a cancellation, the first (lowest-index)
	// app error in fail-fast mode, or an infrastructure failure such as a
	// worker failing to dial the collector. Nil after a clean run.
	Err error
	// Quarantine carries the quarantine record (EventQuarantine).
	Quarantine *QuarantinedApp
	// Summary is the fleet's Result; it closes the stream (EventSummary).
	Summary *Result
}

// Sink consumes stream events: live progress printers, incremental
// aggregation (analysis.Accumulator, analysis.DatasetBuilder), the result
// store's record sink. Sinks are invoked sequentially from the consuming
// goroutine, in event order — a Sink may therefore use single-goroutine
// state such as a symtab.Table without locking. A run's evidence is
// already in the artifact store when its event reaches a sink.
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

// newCollector and newStore create a fleet's collector and apk store;
// package variables so a test can inspect the ones a campaign used.
var newCollector, newStore = NewCollector, NewStore

// Stream exercises every app in the source across the worker fleet and
// returns a bounded channel of per-app events in completion order, closed
// after a final EventSummary. The caller must drain the channel until it
// closes (Drain does this); cancelling ctx stops the fleet promptly —
// each worker finishes at most its one in-flight app — and every event
// of the cancelled stream, the in-flight apps' outcomes and the summary
// included, is still delivered, however slowly the consumer drains.
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
	if cfg.Resume != nil && cfg.Artifacts != nil {
		// Half-written entries are never read: their runs save afresh.
		if err := cfg.Artifacts.removeIncomplete(); err != nil {
			return nil, err
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

	// One collector and one apk store per fleet: every report reaches
	// attribution over UDP (§II-A), every apk through the database server
	// (§III-A).
	collector, err := newCollector(cfg.Telemetry)
	if err != nil {
		return nil, err
	}

	f := &fleetRun{
		ctx:       ctx,
		cfg:       cfg,
		source:    source,
		resolver:  resolver,
		collector: collector,
		store:     newStore(),
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

// Drain consumes a stream to its end, forwarding every event to the sinks
// in order, and returns the Result the closing summary — always the
// stream's last event — carries. On error the returned Result still
// holds whatever the summary reported, so callers can account for a
// partial fleet after a cancellation.
func Drain(events <-chan RunEvent, sinks ...Sink) (*Result, error) {
	var last RunEvent
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
		last = ev
	}
	if last.Err != nil {
		return last.Summary, last.Err
	}
	return last.Summary, sinkErr
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

// emit delivers one event. It blocks until the consumer takes it, even
// on a cancelled stream: Stream's contract is that the consumer drains to
// close, so every terminal outcome and the summary reach every sink, and
// the summary's ledger counts exactly the events the sinks saw.
func (f *fleetRun) emit(ev RunEvent) {
	f.events <- ev
}

// job is one unit of worker work: an app index, plus — when resuming —
// either its journaled terminal outcome (replay instead of re-running) or
// a requeue marker (the crash caught it in flight; run it live).
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
	defer func() { _ = f.collector.Close() }()

	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.worker(jobs)
		}()
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
	res := &Result{
		Failures:    f.failures,
		Quarantined: f.quarantined,
		Accounting:  acct,
		Elapsed:     time.Since(start),
	}
	fatal := f.fatal
	f.mu.Unlock()
	sort.Slice(res.Failures, func(i, j int) bool { return res.Failures[i].AppIndex < res.Failures[j].AppIndex })
	sort.Slice(res.Quarantined, func(i, j int) bool { return res.Quarantined[i].AppIndex < res.Quarantined[j].AppIndex })
	if fatal == nil {
		fatal = f.ctx.Err()
	}
	res.CollectorReports, res.CollectorMalformed, res.CollectorDropped = f.collector.Totals()
	// fleet.summary is deterministic but topology-bound (it carries the
	// resolved shard range), so it streams without entering the JSONL log.
	if bus := f.tel.Bus(); bus.Active() {
		bus.Publish(obs.Event{
			Type: obs.EvFleetSummary, TS: f.tel.Now(), App: -1, Shard: -1,
			Lo: lo, Hi: hi,
			Counts: acct.EventCounts(),
		})
	}
	f.emit(RunEvent{Kind: EventSummary, AppIndex: -1, Summary: res, Err: fatal})
}

// worker pulls app indices until the jobs channel closes or the stream
// stops. A collector-dial failure is an infrastructure fault: it aborts the
// stream as one structured failure instead of silently consuming — and
// thereby poisoning — every remaining job.
func (f *fleetRun) worker(jobs <-chan job) {
	client, err := dialCollector(f.collector.Addr())
	if err != nil {
		f.abort(-1, fmt.Errorf("dispatch: worker failed to dial collector: %w", err))
		return
	}
	defer func() { _ = client.Close() }()
	env := &runEnv{
		source:    f.source,
		resolver:  f.resolver,
		cfg:       f.cfg,
		store:     f.store,
		collector: f.collector,
		client:    client,
		tel:       f.tel,
		meters:    obs.NewMeters(),
	}
	defer env.release()
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

// TraceApp is TraceID's inverse (false for an id TraceID never returns).
func TraceApp(id string) (int, bool) {
	var i int
	_, err := fmt.Sscanf(id, "app-%d", &i)
	return i, err == nil && TraceID(i) == id
}

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

// runApp drives one app through its attempt budget: run, and on failure
// retry with exponential backoff until the budget is spent. Exhausting the
// budget quarantines the app in ContinueOnError mode (the fleet keeps
// going, the app is reported with its attempt count and last error) and
// aborts the stream otherwise. Each attempt's end is one transition;
// apply journals it — with a journal configured the app's lifecycle is
// recorded durably, started before the first attempt, every outcome after
// the collector drain — and performs the rest of its bookkeeping.
// requeued marks a run handed back by resume.
func (f *fleetRun) runApp(env *runEnv, i int, requeued bool) {
	maxAttempts := f.cfg.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	// Quarantine is meaningful only when the fleet keeps running and
	// actually retries; a single-attempt or fail-fast fleet reports plain
	// failures.
	exhausted := outcomeFailed
	if f.cfg.ContinueOnError && maxAttempts > 1 {
		exhausted = outcomeQuarantined
	}
	a := f.begin(env, i, false, requeued)
	if a == nil {
		return
	}
	for attempt := 1; ; attempt++ {
		ctx, cancel := f.attemptCtx()
		run, evidence, meters, skip, err := env.runOne(ctx, i, attempt, a.root)
		cancel()
		tr := transition{kind: exhausted, attempt: attempt, err: err, meters: meters, run: run, evidence: evidence}
		switch {
		case err == nil && skip:
			tr.kind = outcomeSkip
		case err == nil:
			tr.kind = outcomeRun
		case attempt < maxAttempts && f.ctx.Err() == nil:
			// Once the fleet is being cancelled the attempt failed because
			// (or regardless) of it, and retrying against a dead context
			// would only burn the budget on context errors.
			tr.kind = outcomeRetry
			tr.backoff, tr.backoffMS = f.retryBackoff(attempt)
		}
		if !a.apply(tr) || tr.kind != outcomeRetry {
			return
		}
		// The backoff was charged, not slept; a fleet stopped meanwhile
		// makes the attempt just retried the app's last.
		if f.ctx.Err() != nil || f.stopped() {
			a.apply(transition{kind: exhausted, attempt: attempt, err: err})
			return
		}
	}
}

// attemptCtx derives one attempt's context, applying the per-run deadline
// when configured.
func (f *fleetRun) attemptCtx() (context.Context, context.CancelFunc) {
	if f.cfg.RunTimeout > 0 {
		return context.WithTimeout(f.ctx, f.cfg.RunTimeout)
	}
	return context.WithCancel(f.ctx)
}

// retryBackoff is the delay before the attempt after the given one:
// RetryBackoff doubled per completed attempt, and the milliseconds of it
// the metrics counter is charged (truncated per wait; the journal
// replicates both).
func (f *fleetRun) retryBackoff(attempt int) (time.Duration, int64) {
	if f.cfg.RetryBackoff <= 0 {
		return 0, 0
	}
	shift := attempt - 1
	if shift > 16 {
		shift = 16
	}
	d := f.cfg.RetryBackoff << shift
	return d, d.Milliseconds()
}
