package libspector

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"libspector/internal/analysis"
	"libspector/internal/attribution"
	"libspector/internal/dispatch"
	"libspector/internal/obs"
	"libspector/internal/resultstore"
)

// CampaignResult is the merged outcome of a sharded campaign: one
// Accounting ledger covering the whole corpus, the concatenated failure
// and quarantine records, the merged telemetry snapshot, and the figures
// finished from the merged shard partials. For any shard count N (with
// Workers >= N) it is byte-identical — figures, ledger, snapshot — to
// the uninterrupted single-process run of the same config.
type CampaignResult struct {
	Accounting  dispatch.Accounting
	Failures    []dispatch.RunFailure
	Quarantined []dispatch.QuarantinedApp
	Snapshot    obs.Snapshot
	Aggregates  *analysis.Aggregates
	// Takeovers counts shard re-launches the coordinator consumed
	// (0 on a healthy campaign).
	Takeovers int
	// Shards is the shard count the campaign ran with.
	Shards int
}

// ShardPath derives shard index's own journal from Config.Journal.
func ShardPath(base string, index int) string {
	return fmt.Sprintf("%s.shard-%03d", base, index)
}

// ShardArtifactDir derives shard index's artifact directory from the
// campaign artifact base directory.
func ShardArtifactDir(base string, index int) string {
	return filepath.Join(base, fmt.Sprintf("shard-%03d", index))
}

// resolvedWorkers is the campaign worker budget after defaulting — the
// same defaulting dispatch.Stream applies, hoisted here so the shard plan
// splits the budget a single-process run would actually have used.
func (e *Experiment) resolvedWorkers() int {
	if e.cfg.Workers > 0 {
		return e.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// shardPlan splits this experiment's corpus and worker budget.
func (e *Experiment) shardPlan(shards int) dispatch.ShardPlan {
	return dispatch.ShardPlan{TotalApps: e.apps, Shards: shards, Workers: e.resolvedWorkers()}
}

// coordinator builds the dispatch.Coordinator every sharded campaign of
// this experiment runs under. In-process shards and shard processes
// differ only in the runner (and in the liveness probes a process parent
// adds): plan, takeover budget, bus, and WAL are the campaign's.
func (e *Experiment) coordinator(shards int, run dispatch.ShardRunner) *dispatch.Coordinator {
	c := &dispatch.Coordinator{
		Plan: e.shardPlan(shards),
		Run:  run,
		// Shard lifecycle and merge progress stream on the campaign bus.
		Tel: e.cfg.Telemetry,
	}
	if e.cfg.Journal != "" {
		// Journal replay makes takeover cheap (completed apps are never
		// redone), and every successful takeover strictly grows the
		// journaled prefix; one takeover per app bounds even a campaign
		// where every single run crashes the shard hosting it. Without a
		// journal a re-launched shard would redo every run, so the budget
		// stays zero and a shard death fails the campaign.
		c.MaxTakeovers = e.apps
	}
	if e.cfg.CoordinatorWAL != "" {
		c.WAL = e.cfg.CoordinatorWAL
		c.Resume = e.cfg.Resume
		c.Fingerprint = e.cfg.Fingerprint()
	}
	return c
}

// RunSharded executes the campaign as N in-process shards under a
// dispatch.Coordinator and merges the results. Each shard runs its
// contiguous app-index range with its own collector, telemetry registry
// and event bus, journal (Config.Journal + ".shard-NNN"), and artifact store
// (Config.ArtifactDir + "/shard-NNN"); the synthetic world, detector,
// and domain service are shared, which is safe because all three are
// concurrency-safe and — crucially — their figure-shaping outputs do not
// depend on observation order.
//
// A shard that dies (a crash-class fault, a cancelled context from a
// liveness probe) is taken over: it is re-launched and resumes from its
// journal, replaying completed apps from the artifact store, so the
// campaign result is byte-identical to an uninterrupted run. Takeover
// requires Config.Journal and Config.ArtifactDir to be set.
//
// Like RunContext, RunSharded finalizes the detector and must not be
// called twice or concurrently with other runs on the same Experiment.
func (e *Experiment) RunSharded(ctx context.Context, shards int) (*CampaignResult, error) {
	out, err := e.coordinator(shards, e.runShardTask).Execute(ctx)
	if err != nil {
		return nil, fmt.Errorf("libspector: sharded campaign: %w", err)
	}
	return e.finishCampaign(out, shards)
}

// RunShard executes exactly one shard of an N-shard split and returns its
// outcome, carrying the shard's encoded partial and ready for
// dispatch.WriteShardOutcome — see RunShardChild for the child-process
// entry point. Outcomes gathered out-of-band merge with
// MergeShardOutcomes.
func (e *Experiment) RunShard(ctx context.Context, index, shards int) (*dispatch.ShardOutcome, error) {
	if shards < 1 || index < 0 || index >= shards {
		return nil, fmt.Errorf("libspector: shard index %d out of %d", index, shards)
	}
	plan := e.shardPlan(shards)
	return e.runShardTask(ctx, dispatch.ShardTask{
		Index:   index,
		Range:   plan.Range(index),
		Workers: plan.WorkersFor(index),
	})
}

// MergeShardOutcomes merges shard outcomes collected from separate
// processes (dispatch.ReadShardOutcome) into the campaign result,
// finishing the figures from the decoded partials. Outcomes must be
// passed in shard order and cover the whole plan: outcome i must be
// shard i with the range this experiment's len(outcomes)-shard plan
// gives it, so a missing, repeated or reordered file is refused rather
// than merged into a campaign over the wrong apps.
func (e *Experiment) MergeShardOutcomes(outcomes []*dispatch.ShardOutcome) (*CampaignResult, error) {
	plan := e.shardPlan(len(outcomes))
	for i, o := range outcomes {
		if o == nil {
			continue // MergeOutcomes names the missing shard
		}
		if want := plan.Range(i); o.Index != i || o.Range != want {
			return nil, fmt.Errorf("libspector: outcome %d is shard %d over apps [%d, %d), want shard %d over [%d, %d) of a %d-shard plan",
				i, o.Index, o.Range.Lo, o.Range.Hi, i, want.Lo, want.Hi, len(outcomes))
		}
	}
	out, err := dispatch.MergeOutcomes(outcomes)
	if err != nil {
		return nil, err
	}
	return e.finishCampaign(out, len(outcomes))
}

// runShardTask is the in-process ShardRunner: runFleet restricted to the
// task's range with the shard's own telemetry, attributor, journal, and
// artifact store, folding into one Accumulator that is sealed into the
// shard's encoded partial.
func (e *Experiment) runShardTask(ctx context.Context, task dispatch.ShardTask) (*dispatch.ShardOutcome, error) {
	tel, events := e.shardTelemetry()
	attr := attribution.NewAttributor(e.domains)
	attr.SetTelemetry(tel)
	spec := fleetSpec{index: task.Index, rng: task.Range, workers: task.Workers, tel: tel, attr: attr}
	if e.cfg.ArtifactDir != "" {
		spec.artifactDir = ShardArtifactDir(e.cfg.ArtifactDir, task.Index)
	}
	if e.cfg.Journal != "" {
		spec.journal = ShardPath(e.cfg.Journal, task.Index)
		// Resume on takeover, or when the whole campaign is a resume —
		// unless this shard never got far enough to write a journal.
		if e.cfg.Resume || task.Attempt > 0 {
			_, statErr := os.Stat(spec.journal)
			spec.resume = statErr == nil
		}
	}
	acc, err := analysis.NewAccumulator(e.domains)
	if err != nil {
		return nil, fmt.Errorf("libspector: %w", err)
	}
	res, records, err := runFleet(ctx, e, spec, acc)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*dispatch.ShardOutcome, error) {
		return nil, fmt.Errorf("libspector: shard %d: %w", task.Index, err)
	}
	partial, err := acc.Seal()
	if err != nil {
		return fail(err)
	}
	enc, err := partial.Encode()
	if err != nil {
		return fail(err)
	}
	var seg []byte
	if records != nil {
		// The shard owns a contiguous app-index range, so its sorted
		// segment concatenates with its siblings (in shard order) into the
		// globally canonical record order the merged store depends on.
		if seg, err = records.Seal(); err != nil {
			return fail(err)
		}
	}
	return &dispatch.ShardOutcome{
		Index:       task.Index,
		Range:       task.Range,
		Accounting:  res.Accounting,
		Failures:    res.Failures,
		Quarantined: res.Quarantined,
		Snapshot:    tel.Metrics().Snapshot(),
		Partial:     enc,
		Records:     seg,
		Events:      events.Events(),
	}, nil
}

// shardTelemetry builds a shard incarnation's private telemetry,
// mode-matched to the campaign's: virtual campaigns get virtual shard
// registries (and so byte-deterministic merged snapshots), live campaigns
// get wall-clock ones, untelemetered campaigns get none. Under a campaign
// event bus the incarnation gets a bus of its own, relayed to the
// campaign's subscribers, and the event log its outcome carries.
func (e *Experiment) shardTelemetry() (*obs.Telemetry, *obs.EventLog) {
	var tel *obs.Telemetry
	switch {
	case e.cfg.Telemetry == nil:
		return nil, nil
	case e.cfg.Telemetry.Virtual():
		tel = obs.NewVirtual(nil)
	default:
		tel = obs.New()
	}
	campaign := e.cfg.Telemetry.Bus()
	if campaign == nil {
		return tel, nil
	}
	bus, events := obs.NewBus(nil), obs.NewEventLog()
	bus.Tap(campaign.Stream)
	events.AttachTo(bus)
	tel.SetBus(bus)
	return tel, events
}

// finishCampaign decodes and merges the shard partials, finalizes the
// detector, finishes the figures, and merges the shards' result-store
// segments and event logs into the campaign's. The merged aggregates are also
// installed on the experiment so the usual accessors (Aggregates) and
// report rendering keep working after a sharded run.
func (e *Experiment) finishCampaign(out *dispatch.CampaignOutcome, shards int) (*CampaignResult, error) {
	// Every app publishes run.started: under an event bus, an outcome over
	// apps without events lost its log and would leave the campaign's partial.
	bus := e.cfg.Telemetry.Bus()
	if bus != nil {
		plan := e.shardPlan(shards)
		for i, events := range out.Events {
			if rng := plan.Range(i); len(events) == 0 && rng.Len() > 0 {
				return nil, fmt.Errorf("libspector: shard %d outcome over apps [%d, %d) carries no events", i, rng.Lo, rng.Hi)
			}
		}
	}
	parts := make([]*analysis.Partial, 0, len(out.Partials))
	for i, enc := range out.Partials {
		p, err := analysis.DecodePartial(enc, e.domains)
		if err != nil {
			return nil, fmt.Errorf("libspector: shard %d partial: %w", i, err)
		}
		parts = append(parts, p)
	}
	merged, err := analysis.MergePartials(parts...)
	if err != nil {
		return nil, fmt.Errorf("libspector: merging partials: %w", err)
	}
	e.detector.Finalize(2)
	ag, err := merged.Finish(e.detector)
	if err != nil {
		return nil, fmt.Errorf("libspector: finishing campaign: %w", err)
	}
	e.aggregates = ag
	if e.cfg.ResultStore != "" {
		// Store merge: shard segments are already sorted and shard order
		// is canonical order, so the merged image is byte-identical to the
		// one a single-process same-seed run writes.
		if _, err := resultstore.WriteSegments(e.cfg.ResultStore, out.Segments); err != nil {
			return nil, fmt.Errorf("libspector: writing result store: %w", err)
		}
	}
	// The shard logs join the campaign's here and only here, in shard
	// (so canonical) order, and reach the taps alone: subscribers saw them
	// live through the relay, if at all. Then the terminal event after
	// durability, mirroring RunContext. The merged ledger equals the
	// single-process one, so the event's bytes are shard-count invariant.
	for _, events := range out.Events {
		for _, ev := range events {
			bus.Record(ev)
		}
	}
	publishCampaignDone(e.cfg.Telemetry, out.Accounting)
	return &CampaignResult{
		Accounting:  out.Accounting,
		Failures:    out.Failures,
		Quarantined: out.Quarantined,
		Snapshot:    out.Snapshot,
		Aggregates:  ag,
		Takeovers:   out.Takeovers,
		Shards:      shards,
	}, nil
}
