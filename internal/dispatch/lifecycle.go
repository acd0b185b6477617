package dispatch

import (
	"fmt"
	"time"

	"libspector/internal/attribution"
	"libspector/internal/faults"
	"libspector/internal/journal"
	"libspector/internal/obs"
)

// The per-app lifecycle. Every attempt of an app ends in one transition:
// the attempt failed and the budget allows another (retry), or the app
// reached a terminal outcome (run, skip, failed, quarantined). The live
// loop produces transitions from runOne; replay reads them back from the
// journal — each RetryInfo, then the terminal AppOutcome; appRun.apply
// performs every side effect for both, so a resumed campaign cannot drift
// from an uninterrupted one. DESIGN.md §7 tabulates what each transition
// journals, charges and publishes.

// outcome is how one attempt ended.
type outcome int

const (
	outcomeRetry outcome = iota + 1
	outcomeRun
	outcomeSkip
	outcomeFailed
	outcomeQuarantined
)

// outcomes says, per outcome, which names its transition goes by in each
// output: the journal record, the bus event, the fleet counter, the
// dispatch span's outcome attribute, and the stream event.
var outcomes = [...]struct {
	record  journal.Type
	outcome journal.Outcome
	event   obs.EventType
	counter string
	span    string
	stream  EventKind
}{
	outcomeRetry:       {record: journal.TypeRetry, event: obs.EvRunRetry},
	outcomeRun:         {journal.TypeCompleted, journal.OutcomeRun, obs.EvRunCompleted, obs.MFleetCompleted, "run", EventRun},
	outcomeSkip:        {journal.TypeCompleted, journal.OutcomeSkip, obs.EvRunSkipped, obs.MFleetSkipped, "skip", EventSkip},
	outcomeFailed:      {journal.TypeCompleted, journal.OutcomeFailed, obs.EvRunFailed, obs.MFleetFailed, "failure", EventFailure},
	outcomeQuarantined: {journal.TypeQuarantined, "", obs.EvRunQuarantined, obs.MFleetQuarantined, "quarantine", EventQuarantine},
}

// transition is the end of one attempt.
type transition struct {
	kind outcome
	// attempt is the 1-based attempt this transition ends.
	attempt int
	// err is the attempt's failure (retry, failed, quarantined).
	err error
	// backoff and backoffMS are what this transition charges to the retry
	// ledger: live, a retry's own wait (backoffMS carries the per-wait
	// millisecond truncation of the metrics counter); replayed, the app's
	// whole sum on its terminal transition — the journal keeps only that.
	backoff   time.Duration
	backoffMS int64
	// meters is the attempt's telemetry delta (nil: it charged nothing).
	meters *journal.RunMeters
	// run is the attribution result (outcomeRun), evidence its raw
	// artifacts when the live fleet emits them.
	run      *attribution.RunResult
	evidence *RunEvidence
}

// meterRow ties one journal.RunMeters field to the registry series it
// replicates; bounds is non-nil for a histogram series, observed once per
// attempt.
type meterRow struct {
	field  func(*journal.RunMeters) *int64
	series string
	bounds []int64
}

// runMeterRows is the one field↔series table. Read one way it snapshots
// what an attempt charged the worker's meters into the delta its
// transition carries (attemptMeters); read the other it charges a
// journaled delta back into them (chargeMeters).
var runMeterRows = []meterRow{
	{func(m *journal.RunMeters) *int64 { return &m.Runs }, obs.MEmulatorRuns, nil},
	{func(m *journal.RunMeters) *int64 { return &m.Events }, obs.MEmulatorEvents, nil},
	{func(m *journal.RunMeters) *int64 { return &m.VirtualMS }, obs.MRunVirtualMS, obs.DurationBucketsMS},
	{func(m *journal.RunMeters) *int64 { return &m.TCPWireBytes }, obs.MNetsTCPBytes, nil},
	{func(m *journal.RunMeters) *int64 { return &m.UDPWireBytes }, obs.MNetsUDPBytes, nil},
	{func(m *journal.RunMeters) *int64 { return &m.DNSWireBytes }, obs.MNetsDNSBytes, nil},
	{func(m *journal.RunMeters) *int64 { return &m.Packets }, obs.MNetsPackets, nil},
	{func(m *journal.RunMeters) *int64 { return &m.CaptureBytes }, obs.MNetsCaptureBytes, nil},
	{func(m *journal.RunMeters) *int64 { return &m.BlockedConns }, obs.MNetsBlockedConns, nil},
	{func(m *journal.RunMeters) *int64 { return &m.DroppedGrams }, obs.MNetsDroppedGrams, nil},
	{func(m *journal.RunMeters) *int64 { return &m.ReportsSent }, obs.MXposedReports, nil},
	{func(m *journal.RunMeters) *int64 { return &m.HookErrors }, obs.MXposedHookErrors, nil},
	{func(m *journal.RunMeters) *int64 { return &m.CollectorReceived }, obs.MCollectorReceived, nil},
}

// attemptMeters snapshots what the attempt just run charged the worker's
// meters — still unflushed; apply merges them — as the delta its
// transition carries. Nil when the attempt charged nothing: a skip, or a
// failure ahead of the emulator.
func (env *runEnv) attemptMeters() *journal.RunMeters {
	var d journal.RunMeters
	for _, row := range runMeterRows {
		*row.field(&d) = env.meters.Histogram(row.series, row.bounds).Value()
	}
	// The one series the worker does not charge live — the collector's
	// receive loop does. The attempt's share of it is the datagrams it put
	// on the wire.
	d.CollectorReceived = d.ReportsSent - d.DroppedGrams
	if d == (journal.RunMeters{}) {
		return nil
	}
	return &d
}

// chargeMeters loads a journaled delta into the worker's meters, leaving
// them as the attempt itself would have.
func chargeMeters(m *obs.Meters, d *journal.RunMeters) {
	if d == nil {
		return
	}
	for _, row := range runMeterRows {
		m.Histogram(row.series, row.bounds).Add(*row.field(d))
	}
}

// appRun is one app's pass through the lifecycle: what begin opened, and
// what the transitions applied so far have charged.
type appRun struct {
	f   *fleetRun
	env *runEnv
	i   int
	// replay marks transitions read from the journal, not produced live.
	replay bool
	// requeued marks a live run handed back by resume.
	requeued bool
	// root is the app's dispatch span: it covers every attempt, the
	// backoff between them, and the stage children runOne hangs off it.
	// Host-side timestamps come from the telemetry time source (a fixed
	// epoch in deterministic mode), so the trace serializes
	// byte-identically under a virtual clock.
	root      *obs.Span
	attempts  int
	backoff   time.Duration
	backoffMS int64
	observed  bool
}

// begin opens an app's lifecycle: the run-started journal record (live
// only), the run.started event, the dispatch root span. Nil when the
// journal append failed and the stream is aborting.
func (f *fleetRun) begin(env *runEnv, i int, replay, requeued bool) *appRun {
	if !replay && f.cfg.Journal != nil && !f.journalAppend(f.cfg.Journal.RunStarted(i)) {
		return nil
	}
	// Run-lifecycle bus events carry App but never a shard index: the
	// same app lands in different shards at different shard counts, and
	// the JSONL event log must stay byte-identical across them.
	if bus := f.tel.Bus(); bus.Active() {
		bus.Publish(obs.Event{Type: obs.EvRunStarted, TS: f.tel.Now(), App: i, Shard: -1})
	}
	root := f.tel.Trace(TraceID(i)).Span(obs.SpanDispatch, f.tel.Now())
	root.AttrInt("app", int64(i))
	if replay {
		root.Attr("resume", "replay")
	}
	return &appRun{f: f, env: env, i: i, replay: replay, requeued: requeued, root: root}
}

// apply performs every side effect of one transition, in the order
// observe, journal, charge, publish, and — for a terminal outcome — close
// the span, fold, emit. Live and replay differ only where they truly do:
// live journals the transition and replay does not; replay counts and
// announces itself (fleet_resume_replayed_total, run.replayed); a
// replayed failure never aborts the stream; an interrupted live failure
// is not journaled. Returns false when the stream is aborting and the
// app's lifecycle must stop here.
func (a *appRun) apply(tr transition) bool {
	f, env, names := a.f, a.env, &outcomes[tr.kind]
	terminal := tr.kind != outcomeRetry
	errText := ""
	if tr.err != nil {
		errText = tr.err.Error()
	}

	// One detector observation per app, at its first attempt that got an
	// app past the ABI filter: ObserveApp accumulates per-app prefix
	// counts, so a retried app must not be counted twice — nor a replayed
	// one whose evidence fails re-attribution and is requeued, which is
	// why replay observes only here, after reconstructRun has succeeded.
	if app := env.app; app != nil && !a.observed && f.cfg.Detector != nil {
		a.observed = true
		if err := f.cfg.Detector.ObserveApp(app.APK.Manifest.Package, app.Program.Dex.Packages()); err != nil {
			f.abort(a.i, fmt.Errorf("dispatch: app %d: %w", a.i, err))
			return false
		}
	}

	// A failure observed while the fleet is being cancelled is the
	// shutdown's artifact, not the app's history: journaling it would make
	// every resume replay a "context canceled" failure forever. Without a
	// terminal record the started record leaves the app in flight, so
	// resume re-runs it.
	interrupted := (tr.kind == outcomeFailed || tr.kind == outcomeQuarantined) && f.ctx.Err() != nil
	if !a.replay && f.cfg.Journal != nil && !interrupted {
		rec := journal.Record{
			Type: names.record, App: a.i, Outcome: names.outcome,
			Attempts: tr.attempt, Error: errText, Meters: tr.meters,
		}
		if terminal {
			rec.BackoffNS, rec.BackoffMS = int64(a.backoff+tr.backoff), a.backoffMS+tr.backoffMS
		}
		if tr.kind == outcomeRun {
			rec.ArtifactSHA = tr.run.AppSHA
		}
		if !a.journal(rec) {
			return false
		}
	}

	// The attempt's meters are in the worker's cells — runOne charged
	// them live, replayApp from the journaled delta.
	env.meters.Flush(f.tel)
	// A transition charges the attempts between the last one charged and
	// its own: one, live and on a journal that recorded every retry; all
	// of them on the terminal record of a journal that predates retry
	// records.
	attempts := tr.attempt - a.attempts
	a.attempts, a.backoff, a.backoffMS = tr.attempt, a.backoff+tr.backoff, a.backoffMS+tr.backoffMS
	recovered := tr.kind == outcomeRun && tr.attempt > 1
	f.mu.Lock()
	f.attempts += attempts
	f.backoff += tr.backoff
	switch tr.kind {
	case outcomeRun:
		f.completed++
		if recovered {
			f.retried++
		}
	case outcomeSkip:
		f.skipped++
	case outcomeFailed:
		f.failures = append(f.failures, RunFailure{AppIndex: a.i, Err: tr.err, Attempts: tr.attempt})
	case outcomeQuarantined:
		f.quarantined = append(f.quarantined, QuarantinedApp{AppIndex: a.i, Attempts: tr.attempt, LastErr: tr.err})
	}
	f.mu.Unlock()
	f.tel.Counter(obs.MFleetAttempts).Add(int64(attempts))
	f.tel.Counter(obs.MFleetBackoffMS).Add(tr.backoffMS)
	if terminal {
		f.tel.Counter(names.counter).Inc()
	}
	if recovered {
		f.tel.Counter(obs.MFleetRetries).Inc()
	}
	if a.replay && terminal {
		f.tel.Counter(obs.MResumeReplayed).Inc()
	}

	if bus := f.tel.Bus(); bus.Active() {
		if a.replay && terminal {
			bus.Publish(obs.Event{Type: obs.EvRunReplayed, TS: f.tel.Now(), App: a.i, Shard: -1, Attempt: tr.attempt})
		}
		ev := obs.Event{Type: names.event, TS: f.tel.Now(), App: a.i, Shard: -1, Attempt: tr.attempt, Error: errText}
		if tr.kind == outcomeRun {
			ev.Package, ev.Flows = tr.run.AppPackage, int64(len(tr.run.Flows))
			if m := tr.meters; m != nil {
				ev.VirtualMS, ev.DroppedDatagrams = m.VirtualMS, m.DroppedGrams
				ev.TCPBytes, ev.UDPBytes, ev.DNSBytes = m.TCPWireBytes, m.UDPWireBytes, m.DNSWireBytes
			}
		}
		bus.Publish(ev)
	}
	if !terminal {
		return true
	}

	a.root.Attr("outcome", names.span).AttrInt("attempts", int64(tr.attempt)).End(f.tel.Now())
	ev := RunEvent{Kind: names.stream, AppIndex: a.i, Run: tr.run, Evidence: tr.evidence, Err: tr.err}
	switch tr.kind {
	case outcomeRun:
		if env.fold != nil {
			env.fold(ev)
		}
		if tr.evidence != nil {
			// The capture buffer goes with the event: Drain returns it to
			// the free list once every sink has consumed it.
			tr.evidence.recycle, env.capture = env.spare, nil
		}
	case outcomeQuarantined:
		ev.Quarantine = &QuarantinedApp{AppIndex: a.i, Attempts: tr.attempt, LastErr: tr.err}
	case outcomeFailed:
		// A replayed failure is historical: the operator chose to resume
		// past it, so it never aborts the stream, even in fail-fast mode.
		if !a.replay && !f.cfg.ContinueOnError {
			f.abort(a.i, fmt.Errorf("dispatch: app %d: %w", a.i, tr.err))
		}
	}
	f.emit(ev)
	return true
}

// journal appends a transition's record. On a run that just completed
// it is also where the journal crash classes fire: JournalCrash commits
// the record durably, then dies before the event (and therefore its
// evidence) reaches any sink — the journal says done, the store
// disagrees; JournalTear dies mid-append, leaving a torn frame for
// recovery to truncate. Both abort the stream the way a killed process
// would. Returns false when the stream is aborting.
func (a *appRun) journal(rec journal.Record) bool {
	f, w := a.f, a.f.cfg.Journal
	// A requeued run is the takeover of a crash that already fired: the
	// host that died is gone, and the healthy host re-running the app
	// must be allowed to commit — otherwise a crash-faulted app could
	// never converge, no matter how many takeovers the budget grants.
	if rec.Outcome == journal.OutcomeRun && f.cfg.Faults != nil && !a.requeued {
		// Attempt 1 on purpose: the crash models the host dying after the
		// run, not a retryable run fault, so it must not evaporate just
		// because the run itself needed a retry.
		switch f.cfg.Faults.For(a.i, 1).Class {
		case faults.JournalCrash:
			// "Commit durably, then die": the record must actually reach
			// the disk before the injected death, or resume would correctly
			// requeue the app and the test would be proving nothing. A
			// failed append or fsync here is therefore a real durability
			// failure riding under the injection — surface it in the ledger
			// and the abort error instead of discarding it.
			err := w.Append(rec)
			if err == nil {
				err = w.Sync()
			}
			if err != nil {
				f.noteJournalFailure()
				f.abort(a.i, fmt.Errorf("dispatch: app %d: journal-crash commit failed: %w", a.i, err))
			} else {
				f.abort(a.i, fmt.Errorf("dispatch: app %d: journal-crash %w after commit", a.i, faults.ErrInjected))
			}
			return false
		case faults.JournalTear:
			w.InjectTear()
			err := w.Append(rec)
			f.abort(a.i, fmt.Errorf("dispatch: app %d: journal-tear %w: %v", a.i, faults.ErrInjected, err))
			return false
		}
	}
	return f.journalAppend(w.Append(rec))
}
