package dispatch

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"libspector/internal/obs"
)

// ShardTask describes one shard execution handed to a ShardRunner.
type ShardTask struct {
	// Index is the shard's position in the plan.
	Index int
	// Range is the shard's contiguous global app-index range.
	Range ShardRange
	// Workers is the shard's slice of the campaign worker budget (0 when
	// the plan has no budget and the shard should default independently).
	Workers int
	// Attempt is 0 on first launch and increments on every takeover of
	// this shard. Takeover attempts are expected to resume from the
	// shard's journal, which replay makes crash-safe.
	Attempt int
}

// ShardOutcome is what one shard execution hands back to the
// coordinator. The analysis state travels as an opaque encoded partial
// (analysis.Partial wire format) so dispatch stays free of an analysis
// dependency — the import runs the other way.
type ShardOutcome struct {
	Index       int
	Range       ShardRange
	Accounting  Accounting
	Failures    []RunFailure
	Quarantined []QuarantinedApp
	// Snapshot is the shard's final telemetry registry state.
	Snapshot obs.Snapshot
	// Partial is the shard's encoded analysis partial.
	Partial []byte
	// Records is the shard's flushed resultstore segment
	// (resultstore.EncodeSegment wire format), empty when the campaign
	// ran without a result store. Like Partial it travels as opaque
	// bytes — dispatch stays free of the producer's dependency.
	Records []byte
	// Events is the incarnation's event log (obs.EventLog) in canonical
	// order, empty without an event bus: the one way a shard's events
	// reach the campaign's, so a dead incarnation's die with it.
	Events []obs.Event
}

// ShardRunner executes one shard task to completion and returns its
// outcome. Implementations run the shard either in-process (a Stream
// restricted to task.Range) or as a separate process (fleetscan). On a
// takeover attempt the runner must resume from the shard's journal so
// completed work is replayed, not redone.
type ShardRunner func(ctx context.Context, task ShardTask) (*ShardOutcome, error)

// Coordinator runs a sharded campaign: it launches every shard of the
// plan concurrently through the runner, watches liveness via the
// optional probe, reassigns dead shards (up to MaxTakeovers total,
// relying on journal replay for crash-safe handoff), and merges the
// shard outcomes — partials, Accounting ledgers, obs snapshots — into
// one campaign result.
type Coordinator struct {
	Plan ShardPlan
	Run  ShardRunner
	// MaxTakeovers bounds how many shard re-launches the whole campaign
	// may consume; 0 means a failed shard fails the campaign.
	MaxTakeovers int
	// Probe, when set, is polled every ProbeInterval per running shard
	// (e.g. obs.ProbeHealthz against the shard's ops endpoint). A shard
	// is declared dead — its context cancelled, surfacing as a failure
	// that triggers a takeover — only after ProbeStrikes consecutive
	// probe errors, so one transient timeout doesn't burn takeover
	// budget.
	Probe func(index int) error
	// ProbeInterval defaults to DefaultProbeInterval when zero.
	ProbeInterval time.Duration
	// ProbeStrikes is how many consecutive probe failures declare a
	// shard dead; it defaults to DefaultProbeStrikes when <= 0.
	ProbeStrikes int
	// Progress, when set alongside StallDeadline, reads a shard's
	// progress watermark (apps reaching a terminal outcome — see
	// obs.FetchProgress). A shard whose watermark stops advancing for
	// StallDeadline is declared dead even while its Probe stays green:
	// a deadlocked shard answers /healthz forever.
	Progress func(index int) (int64, error)
	// StallDeadline is how long a shard's watermark may sit still before
	// the shard is declared stalled. Zero disables stall detection.
	StallDeadline time.Duration
	// Tel, when set, carries the campaign event bus: the coordinator
	// publishes shard lifecycle (started/done deterministic;
	// healthy/dead/stalled/takeover wall-only) and merge progress on it.
	// Supervision counters (coordinator_takeovers_total, stall
	// detections, per-shard attempt gauges) land on its registry too.
	Tel *obs.Telemetry

	// WAL, when non-empty, is the path of the coordinator's own
	// crash-safe write-ahead log: shard attempts, takeover-budget
	// consumption, and sealed outcomes are journaled so a
	// killed-and-restarted coordinator resumes instead of redoing
	// finished shards or resetting the budget. Sealed outcomes are
	// persisted next to it, in WAL + ".outcomes". See supervise.go.
	WAL string
	// Resume re-opens an existing WAL and resumes the campaign it
	// describes; without it a pre-existing WAL is truncated and the
	// campaign starts over (matching journal.Create's semantics for the
	// shard journals).
	Resume bool
	// Fingerprint binds the WAL to one campaign configuration; a resume
	// against a WAL recorded under a different fingerprint fails.
	Fingerprint string
	// WALObserver, when set, is called with the total record count after
	// every WAL append. Tests use it to kill the coordinator at exact
	// record boundaries.
	WALObserver func(records int)
	// CrashAfterWALRecords, when > 0, is the in-process chaos hook: the
	// WAL refuses every append after that many records, simulating a
	// coordinator killed at an exact record boundary (the durable prefix
	// is precisely that many records — the WAL fsyncs each one).
	CrashAfterWALRecords int
}

// publish emits one coordinator event when the campaign bus is live.
// wallOnly events are suppressed under virtual telemetry — liveness is
// scheduler timing, which a deterministic event stream must not carry.
func (c *Coordinator) publish(ev obs.Event) {
	bus := c.Tel.Bus()
	if !bus.Active() {
		return
	}
	if ev.Type.WallOnly() && c.Tel.Virtual() {
		return
	}
	ev.TS = c.Tel.Now()
	bus.Publish(ev)
}

// supTel is the telemetry target for supervision metrics (takeovers,
// stalls, per-shard attempt gauges). Like wall-only events they are
// suppressed under virtual telemetry: takeover counts depend on real
// process/scheduler behavior, and registering them on a deterministic
// registry would perturb the snapshot byte-identity the invariance
// tests pin. Nil telemetry is inert, so call sites stay unconditional.
func (c *Coordinator) supTel() *obs.Telemetry {
	if c.Tel.Virtual() {
		return nil
	}
	return c.Tel
}

// DefaultProbeInterval is the liveness polling cadence when the
// coordinator has a probe but no explicit interval.
const DefaultProbeInterval = 250 * time.Millisecond

// DefaultProbeStrikes is how many consecutive probe failures declare a
// shard dead when the coordinator doesn't set its own threshold.
const DefaultProbeStrikes = 3

// CampaignOutcome is the merged result of all shards.
type CampaignOutcome struct {
	// Accounting is the summed corpus ledger; shard ranges are disjoint
	// and exhaustive, so it covers the whole corpus exactly once.
	Accounting Accounting
	// Failures and Quarantined are the concatenated shard records,
	// sorted by global app index.
	Failures    []RunFailure
	Quarantined []QuarantinedApp
	// Snapshot is the merged telemetry state, with the shard-lifecycle
	// resume series stripped: replay bookkeeping from takeovers is
	// coordinator plumbing, not campaign behavior, and stripping it
	// keeps a taken-over campaign's snapshot byte-identical to an
	// uninterrupted one.
	Snapshot obs.Snapshot
	// Partials holds each shard's encoded analysis partial, in shard
	// order, ready for analysis.DecodePartial + MergePartials.
	Partials [][]byte
	// Segments holds each shard's flushed resultstore segment, in shard
	// order — shard ranges are contiguous and ascending, so the
	// concatenation is already in canonical record order for
	// resultstore.MergeSegments.
	Segments [][]byte
	// Events holds each shard's event log, in shard (so canonical) order.
	Events [][]obs.Event
	// Takeovers is how many shard re-launches the campaign consumed.
	Takeovers int
}

// Plus folds another ledger into this one. Every field is an additive
// count (or duration), so merging disjoint shard ledgers reproduces the
// single-fleet ledger exactly.
func (a Accounting) Plus(b Accounting) Accounting {
	a.TotalApps += b.TotalApps
	a.Completed += b.Completed
	a.SkippedARMOnly += b.SkippedARMOnly
	a.Quarantined += b.Quarantined
	a.Failed += b.Failed
	a.NotRun += b.NotRun
	a.Attempts += b.Attempts
	a.Retried += b.Retried
	a.Backoff += b.Backoff
	a.JournalSyncFailures += b.JournalSyncFailures
	return a
}

// EventCounts is the ledger as the counts block of a bus event
// (fleet.summary, shard.done, campaign.done).
func (a Accounting) EventCounts() *obs.EventCounts {
	return &obs.EventCounts{
		Apps:        int64(a.TotalApps),
		Completed:   int64(a.Completed),
		Skipped:     int64(a.SkippedARMOnly),
		Failed:      int64(a.Failed),
		Quarantined: int64(a.Quarantined),
		Attempts:    int64(a.Attempts),
		Retried:     int64(a.Retried),
	}
}

// Execute runs the campaign. All shards run concurrently; the first
// shard error (lowest index wins, after the takeover budget is spent)
// fails the campaign. On success every shard outcome is merged.
//
// There is one supervision path. Every shard attempt, takeover, and
// sealed outcome is journaled to the WAL before it takes effect, so
// killing the coordinator at ANY record boundary leaves a resumable
// campaign that converges to the uninterrupted result; a coordinator
// without a WAL path runs the same loop over the nil log (see
// supervise.go), whose appends and seals do nothing.
func (c *Coordinator) Execute(ctx context.Context) (*CampaignOutcome, error) {
	if err := c.Plan.Validate(); err != nil {
		return nil, err
	}
	if c.Run == nil {
		return nil, fmt.Errorf("dispatch: coordinator needs a shard runner")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	wal, st, err := c.openWAL()
	if err != nil {
		return nil, err
	}
	defer wal.close()

	outcomes := make([]*ShardOutcome, c.Plan.Shards)
	errs := make([]error, c.Plan.Shards)
	var takeovers atomic.Int64
	takeovers.Store(int64(st.takeovers))
	var wg sync.WaitGroup
	for i := 0; i < c.Plan.Shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outcomes[i], errs[i] = c.runShard(ctx, i, st, wal, &takeovers)
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("dispatch: shard %d: %w", i, err)
		}
	}
	res, err := MergeOutcomes(outcomes)
	if err != nil {
		return nil, err
	}
	res.Takeovers = int(takeovers.Load())
	for i, o := range outcomes {
		c.publish(obs.Event{Type: obs.EvMergeProgress, App: -1, Shard: o.Index, Done: i + 1, Total: len(outcomes)})
	}
	// Recorded after the merge succeeds; a coordinator killed mid-merge
	// resumes with every shard sealed and re-merges idempotently.
	if !st.done {
		if err := wal.append(WALRecord{Type: walDone, Shard: -1}); err != nil {
			return nil, err
		}
	}
	if err := wal.close(); err != nil {
		return nil, err
	}
	return res, nil
}

// runShard drives one shard to a sealed outcome: verify-and-reuse the
// outcome a previous incarnation sealed, or (re)launch attempts —
// journaling each one before it runs and each takeover before the
// relaunch, with liveness watching inside every attempt — until the
// shard completes or the campaign's takeover budget is exhausted.
func (c *Coordinator) runShard(ctx context.Context, i int, st *walState, wal *campaignWAL, takeovers *atomic.Int64) (*ShardOutcome, error) {
	attempt := st.nextAttempt[i]
	if sha, ok := st.sealed[i]; ok {
		out, err := c.reopenSealed(wal.dir, i, sha)
		if err == nil {
			c.publishDone(i, attempt, out)
			return out, nil
		}
		// The seal failed verification (tampered, truncated, lost): the
		// shard's own journal still holds its history, so demote to a
		// resumed re-run at the recorded attempt. No budget is charged —
		// storage damage is not a shard failure.
		c.publish(obs.Event{Type: obs.EvShardDead, App: -1, Shard: i, Attempt: attempt, Error: err.Error()})
	}
	for ; ; attempt++ {
		// Journal the attempt BEFORE launching it: if we die mid-attempt
		// the next incarnation re-runs this attempt number with resume
		// semantics instead of treating the shard as untouched.
		if err := wal.append(WALRecord{Type: walAttempt, Shard: i, Attempt: attempt}); err != nil {
			return nil, err
		}
		c.supTel().Gauge(obs.MCoordShardAttempts(i)).Set(int64(attempt + 1))
		out, err := c.runAttempt(ctx, i, attempt)
		if err == nil {
			if out == nil {
				return nil, fmt.Errorf("runner returned no outcome")
			}
			if err := wal.seal(out, attempt); err != nil {
				return nil, err
			}
			return out, nil
		}
		if ctx.Err() != nil {
			return nil, err
		}
		if !consumeTakeover(takeovers, c.MaxTakeovers) {
			return nil, fmt.Errorf("attempt %d failed with no takeover budget left: %w", attempt, err)
		}
		if werr := wal.append(WALRecord{Type: walTakeover, Shard: i, Attempt: attempt + 1, Error: err.Error()}); werr != nil {
			return nil, werr
		}
		c.supTel().Counter(obs.MCoordTakeovers).Inc()
		c.publish(obs.Event{Type: obs.EvShardTakeover, App: -1, Shard: i, Attempt: attempt + 1, Error: err.Error()})
	}
}

// publishDone announces a shard's final outcome, whether an attempt just
// produced it or a resumed coordinator reopened its seal.
func (c *Coordinator) publishDone(i, attempt int, out *ShardOutcome) {
	rng := c.Plan.Range(i)
	c.publish(obs.Event{
		Type: obs.EvShardDone, App: -1, Shard: i, Lo: rng.Lo, Hi: rng.Hi, Attempt: attempt,
		Counts: out.Accounting.EventCounts(),
	})
}

func (c *Coordinator) runAttempt(ctx context.Context, i, attempt int) (*ShardOutcome, error) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()

	rng := c.Plan.Range(i)
	c.publish(obs.Event{Type: obs.EvShardStarted, App: -1, Shard: i, Lo: rng.Lo, Hi: rng.Hi, Attempt: attempt})

	var probeErr atomic.Value
	var watch sync.WaitGroup
	if c.Probe != nil || (c.Progress != nil && c.StallDeadline > 0) {
		watch.Add(1)
		go func() {
			defer watch.Done()
			c.watchShard(sctx, cancel, i, attempt, rng, &probeErr)
		}()
	}

	out, err := c.Run(sctx, ShardTask{
		Index:   i,
		Range:   rng,
		Workers: c.Plan.WorkersFor(i),
		Attempt: attempt,
	})
	cancel()
	watch.Wait()
	if err != nil {
		if pe, ok := probeErr.Load().(error); ok {
			return nil, fmt.Errorf("declared dead by liveness probe (%v): %w", pe, err)
		}
		return nil, err
	}
	c.publishDone(i, attempt, out)
	return out, nil
}

// watchShard is one attempt's liveness watcher. It polls the
// reachability probe with ProbeStrikes-consecutive-failure hysteresis
// and the progress watermark against the stall deadline; declaring the
// shard dead stores the reason in probeErr and cancels the attempt.
func (c *Coordinator) watchShard(sctx context.Context, cancel context.CancelFunc, i, attempt int, rng ShardRange, probeErr *atomic.Value) {
	interval := c.ProbeInterval
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	maxStrikes := c.ProbeStrikes
	if maxStrikes <= 0 {
		maxStrikes = DefaultProbeStrikes
	}
	stalling := c.Progress != nil && c.StallDeadline > 0
	strikes := 0
	answered := false
	lastMark := int64(-1)
	lastAdvance := time.Now()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-sctx.Done():
			return
		case <-ticker.C:
		}
		if c.Probe != nil {
			if err := c.Probe(i); err != nil {
				// Failures before the shard has EVER answered are startup,
				// not death — a child process booting its corpus must not
				// look like a hang. A shard that never comes up is the
				// stall deadline's to catch (its watermark clock started
				// with this watch).
				if answered {
					strikes++
					if strikes >= maxStrikes {
						probeErr.Store(fmt.Errorf("%d consecutive probe failures: %w", strikes, err))
						c.publish(obs.Event{Type: obs.EvShardDead, App: -1, Shard: i, Attempt: attempt, Error: err.Error()})
						cancel()
						return
					}
				}
			} else {
				answered = true
				strikes = 0
				c.publish(obs.Event{Type: obs.EvShardHealthy, App: -1, Shard: i, Lo: rng.Lo, Hi: rng.Hi, Attempt: attempt})
			}
		}
		if stalling {
			// A read error leaves the watermark state untouched: an
			// unreadable /debug/vars can't prove progress, so the stall
			// deadline keeps counting and eventually catches it.
			if mark, err := c.Progress(i); err == nil && mark > lastMark {
				lastMark = mark
				lastAdvance = time.Now()
			}
			if time.Since(lastAdvance) >= c.StallDeadline {
				stallErr := fmt.Errorf("shard stalled: watermark stuck at %d past the %v stall deadline", lastMark, c.StallDeadline)
				probeErr.Store(stallErr)
				c.supTel().Counter(obs.MCoordStalls).Inc()
				c.publish(obs.Event{Type: obs.EvShardStalled, App: -1, Shard: i, Attempt: attempt, Error: stallErr.Error()})
				cancel()
				return
			}
		}
	}
}

// consumeTakeover claims one unit of the campaign-wide takeover budget.
func consumeTakeover(used *atomic.Int64, max int) bool {
	for {
		cur := used.Load()
		if int(cur) >= max {
			return false
		}
		if used.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// MergeOutcomes folds shard outcomes — passed in shard order and
// covering the whole plan — into the campaign result: what Execute does
// after its last shard finishes, and what a caller holding outcomes
// gathered out-of-band (files written by shard processes it did not
// supervise) calls directly.
func MergeOutcomes(outcomes []*ShardOutcome) (*CampaignOutcome, error) {
	if len(outcomes) == 0 {
		return nil, fmt.Errorf("dispatch: no shard outcomes to merge")
	}
	out := &CampaignOutcome{}
	snaps := make([]obs.Snapshot, 0, len(outcomes))
	for i, o := range outcomes {
		if o == nil {
			return nil, fmt.Errorf("dispatch: shard %d produced no outcome", i)
		}
		out.Accounting = out.Accounting.Plus(o.Accounting)
		out.Failures = append(out.Failures, o.Failures...)
		out.Quarantined = append(out.Quarantined, o.Quarantined...)
		out.Partials = append(out.Partials, o.Partial)
		out.Segments = append(out.Segments, o.Records)
		out.Events = append(out.Events, o.Events)
		snaps = append(snaps, o.Snapshot)
	}
	sort.Slice(out.Failures, func(i, j int) bool { return out.Failures[i].AppIndex < out.Failures[j].AppIndex })
	sort.Slice(out.Quarantined, func(i, j int) bool { return out.Quarantined[i].AppIndex < out.Quarantined[j].AppIndex })

	merged, err := obs.MergeSnapshots(snaps...)
	if err != nil {
		return nil, err
	}
	// Takeover attempts resume from the shard journal and count their
	// replays; those series describe the takeover itself, not the
	// campaign, so they are dropped before the snapshot is compared or
	// published.
	delete(merged.Counters, obs.MResumeReplayed)
	delete(merged.Counters, obs.MResumeRequeued)
	out.Snapshot = merged
	return out, nil
}
