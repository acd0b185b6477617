package libspector

// Process mode: the campaign's shards as child processes under the same
// coordinator RunSharded uses — parent side RunShardProcesses, child side
// RunShardChild. Callers differ only in how a child is started.

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"libspector/internal/dispatch"
	"libspector/internal/faults"
	"libspector/internal/obs"
)

// ShardChild describes one shard incarnation: what the parent asks a
// child process to do, and what the child needs to do it.
type ShardChild struct {
	// Index of Shards is the shard to run; Attempt is 0 on first launch
	// and increments on every takeover.
	Index, Shards, Attempt int
	// Out is the outcome file the child must write — one per incarnation,
	// so a half-written file from a killed child is never confused with
	// the retry's.
	Out string
	// Resume is set on a takeover or a whole-campaign resume: the child
	// must run with Config.Resume so it replays its shard journal.
	Resume bool
	// MetricsAddr is the ops endpoint the child must serve for the
	// parent's liveness probes ("" = none).
	MetricsAddr string
	// KillAfter is the chaos schedule's order for this incarnation: run
	// with Config.ChaosKillAfterRuns set to it (0 = run clean).
	KillAfter int
}

// ProcessOptions is the parent's supervision and chaos configuration
// for RunShardProcesses.
type ProcessOptions struct {
	// Command builds the not-yet-started command for one shard
	// incarnation — the one thing that differs between callers. It must
	// use exec.CommandContext with the given ctx; the runner owns process
	// group setup, cancellation, and waiting.
	Command func(ctx context.Context, child ShardChild) *exec.Cmd
	// ProbeBasePort, when > 0, gives child i an ops endpoint on
	// 127.0.0.1:(port+i); the parent kills and takes over a shard whose
	// /healthz fails ProbeStrikes times in a row, or — with StallDeadline
	// — whose apps-completed watermark stops advancing that long.
	ProbeBasePort int
	ProbeStrikes  int
	StallDeadline time.Duration
	// ChaosKill, when > 0, arms the seeded process-level chaos schedule
	// (faults.ProcPlan over ChaosSeed) on a fresh campaign: that many
	// shard children SIGKILL themselves mid-run and, when a coordinator
	// WAL is active, the parent SIGKILLs itself mid-campaign. A resumed
	// campaign runs clean, which is what makes the schedule convergent.
	ChaosSeed uint64
	ChaosKill int
}

// RunShardProcesses executes the campaign as N shard processes: the
// experiment's coordinator with a runner that starts one child per shard
// attempt (opts.Command), waits for it, and reads the outcome file it
// wrote. The coordinator supplies liveness watching against each child's
// ops endpoint, journal-backed takeover of dead children, and — with
// Config.CoordinatorWAL — crash-safe resume of the parent itself: re-run
// after a parent kill with Config.Resume and sealed shard outcomes are
// verified and reused, in-flight shards resume from their journals, and
// the takeover budget picks up where it stopped.
//
// Children live in their own process group with SIGKILL parent-death
// signaling, so a dying parent — panicking, SIGKILLed by chaos — never
// leaves orphan shard processes (or their ops-port listeners) behind, and
// a cancelled shard context kills the child's whole tree.
func (e *Experiment) RunShardProcesses(ctx context.Context, shards int, opts ProcessOptions) (*CampaignResult, error) {
	if opts.Command == nil {
		return nil, fmt.Errorf("libspector: process mode needs a child command")
	}
	dir, err := os.MkdirTemp("", "libspector-shards-*")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }()

	var plan *faults.ProcPlan
	if opts.ChaosKill > 0 && !e.cfg.Resume {
		plan = faults.NewProcPlan(opts.ChaosSeed, shards, opts.ChaosKill)
	}
	addr := func(i int) string { return fmt.Sprintf("127.0.0.1:%d", opts.ProbeBasePort+i) }

	coord := e.coordinator(shards, func(ctx context.Context, task dispatch.ShardTask) (*dispatch.ShardOutcome, error) {
		child := ShardChild{
			Index: task.Index, Shards: shards, Attempt: task.Attempt,
			Out:    filepath.Join(dir, fmt.Sprintf("shard-%03d.attempt-%03d.json", task.Index, task.Attempt)),
			Resume: e.cfg.Resume || task.Attempt > 0,
		}
		if opts.ProbeBasePort > 0 {
			child.MetricsAddr = addr(task.Index)
		}
		child.KillAfter, _ = plan.ShardKillAfter(task.Index, task.Attempt)
		cmd := opts.Command(ctx, child)
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
		// Group kill (negative pid): the probe/stall watcher cancelling the
		// shard context must reap the child's whole tree.
		cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("shard %d attempt %d: %w", task.Index, task.Attempt, err)
		}
		return dispatch.ReadShardOutcome(child.Out)
	})
	if opts.ProbeBasePort > 0 {
		coord.Probe = func(i int) error { return obs.ProbeHealthz(addr(i), time.Second) }
		coord.ProbeInterval = 500 * time.Millisecond
		coord.ProbeStrikes = opts.ProbeStrikes
		if opts.StallDeadline > 0 {
			coord.Progress = func(i int) (int64, error) { return obs.FetchProgress(addr(i), time.Second) }
			coord.StallDeadline = opts.StallDeadline
		}
	}
	if kill := plan.CoordinatorKillRecord(); kill > 0 {
		coord.WALObserver = func(records int) {
			if records >= kill {
				faults.KillSelf()
			}
		}
	}

	out, err := coord.Execute(ctx)
	if err != nil {
		return nil, fmt.Errorf("libspector: sharded campaign: %w", err)
	}
	return e.finishCampaign(out, shards)
}

// RunShardChild runs shard child.Index of child.Shards, as a shard
// process does, and hands the result, telemetry included, to the parent
// in one outcome file (read back by dispatch.ReadShardOutcome, merged by
// MergeShardOutcomes). Resume, the chaos kill, the ops endpoint and the
// event bus are part of the Experiment's Config and telemetry, which the
// caller builds from the same ShardChild; that telemetry is the
// incarnation's, so its ops endpoint serves the shard's own registry.
func (e *Experiment) RunShardChild(ctx context.Context, child ShardChild) error {
	if child.Shards < 1 || child.Index < 0 || child.Index >= child.Shards {
		return fmt.Errorf("libspector: shard index %d out of %d", child.Index, child.Shards)
	}
	plan := e.shardPlan(child.Shards)
	task := dispatch.ShardTask{Index: child.Index, Range: plan.Range(child.Index), Workers: plan.WorkersFor(child.Index)}
	out, err := e.runShardTask(ctx, task, e.cfg.Telemetry)
	if err != nil {
		return err
	}
	return dispatch.WriteShardOutcome(child.Out, out)
}
