package libspector

// Process mode: the campaign's shards as child processes under the same
// coordinator RunSharded uses — parent side RunShardProcesses, child side
// RunShardChild. Callers differ only in how a child is started.

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"libspector/internal/dispatch"
	"libspector/internal/faults"
	"libspector/internal/journal"
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
	// EventsOut is where the child writes its shard's deterministic event
	// log ("" = none).
	EventsOut string
	// MetricsAddr is the ops endpoint the child must serve for the
	// parent's liveness probes ("" = none).
	MetricsAddr string
	// KillAfter is the chaos schedule's order for this incarnation: run
	// with Config.ChaosKillAfterRuns set to it (0 = run clean).
	KillAfter int
}

// ProcessOptions is the parent's supervision, chaos, and event-log
// configuration for RunShardProcesses.
type ProcessOptions struct {
	// Command builds the not-yet-started command for one shard
	// incarnation — the one thing that differs between callers. It must
	// use exec.CommandContext with the given ctx; the runner owns process
	// group setup, cancellation, and waiting.
	Command func(ctx context.Context, child ShardChild) *exec.Cmd
	// EventsOut, when set, is the campaign's merged event log: child i
	// writes ShardPath(EventsOut, i), and after the merge the runner
	// concatenates them in shard order followed by Events — the parent's
	// own log, holding campaign.done.
	EventsOut string
	Events    *obs.EventLog
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
	if opts.Command == nil || (opts.EventsOut != "" && opts.Events == nil) {
		return nil, fmt.Errorf("libspector: process mode needs a child command, and the parent's event log when EventsOut is set")
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
		if opts.EventsOut != "" {
			child.EventsOut = ShardPath(opts.EventsOut, task.Index)
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
	res, err := e.finishCampaign(out, shards)
	if err != nil || opts.EventsOut == "" {
		return res, err
	}
	// Shard ranges are contiguous and ascending and each child log is
	// already in canonical order, so concatenation in shard order IS the
	// canonical order — the file comes out byte-identical to a
	// single-process same-seed run's event log.
	err = journal.WriteFileAtomic(opts.EventsOut, func(w io.Writer) error {
		for i := 0; i < shards; i++ {
			data, err := os.ReadFile(ShardPath(opts.EventsOut, i))
			if err != nil {
				return err
			}
			if _, err := w.Write(data); err != nil {
				return err
			}
		}
		return opts.Events.WriteJSONL(w)
	})
	if err != nil {
		return nil, fmt.Errorf("libspector: merging shard event logs: %w", err)
	}
	return res, nil
}

// RunShardChild is the child-process entry point: run shard child.Index
// of child.Shards and hand the result to the parent. The event log is
// written strictly before the outcome file: the parent seals a shard only
// after reading its outcome, so a sealed shard always has a complete log
// even when this process is killed at an arbitrary point. Resume, the
// chaos kill, and the ops endpoint are part of the Experiment's Config
// and telemetry, which the caller builds from the same ShardChild.
func (e *Experiment) RunShardChild(ctx context.Context, child ShardChild, events *obs.EventLog) error {
	out, err := e.RunShard(ctx, child.Index, child.Shards)
	if err != nil {
		return err
	}
	if child.EventsOut != "" {
		if err := events.WriteFile(child.EventsOut); err != nil {
			return fmt.Errorf("libspector: writing shard event log: %w", err)
		}
	}
	return dispatch.WriteShardOutcome(child.Out, out)
}
