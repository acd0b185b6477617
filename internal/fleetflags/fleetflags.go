// Package fleetflags declares the campaign command-line surface once.
// Every binary that runs a fleet (cmd/libspector, cmd/libreport,
// examples/fleetscan) registers the flag groups it supports on its own
// FlagSet and gets the same names, help, flags→Config copy, validation,
// telemetry/bus/ops/event-log wiring, shard-child mode, and process-mode
// child argv from here — so a child re-executed by a -shards parent
// parses exactly the campaign its parent described.
package fleetflags

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"

	"libspector"
	"libspector/internal/dispatch"
	"libspector/internal/faults"
	"libspector/internal/obs"
)

// Flags is one invocation's campaign flag set and, after Open, its
// observability wiring. Groups bind straight onto a
// libspector.DefaultConfig, so a group the binary does not register
// leaves the defaults in place.
type Flags struct {
	// Shards and ShardIndex are the parsed -shards / -shard-index
	// (ShardIndex >= 0 selects child mode: RunShardChild).
	Shards, ShardIndex int
	// Tel is the campaign telemetry Open installed (nil when the binary
	// registered no Ops group, -events-out is unset and the invocation is
	// no shard child: an unobserved libreport run); Events the
	// deterministic event log (nil without -events-out).
	Tel    *obs.Telemetry
	Events *obs.EventLog

	fs           *flag.FlagSet
	cfg          libspector.Config
	proc         libspector.ProcessOptions
	throttleMS   int
	faultClasses string
	opsGroup     bool
	metricsAddr  string
	eventsOut    string
	traceOut     string
	shardOut     string
	ops          io.Closer
}

// New starts a flag set with no groups registered.
func New(fs *flag.FlagSet) *Flags {
	f := &Flags{fs: fs, cfg: libspector.DefaultConfig(), Shards: 1, ShardIndex: -1}
	f.throttleMS = int(f.cfg.Throttle / time.Millisecond)
	return f
}

// Corpus registers -apps, -seed, -workers with the binary's own corpus
// size and worker defaults.
func (f *Flags) Corpus(apps, workers int) *Flags {
	f.fs.IntVar(&f.cfg.Apps, "apps", apps, "number of apps in the corpus")
	f.fs.Uint64Var(&f.cfg.Seed, "seed", 42, "experiment seed")
	f.fs.IntVar(&f.cfg.Workers, "workers", workers, "parallel workers (0 = GOMAXPROCS)")
	return f
}

// World registers the monkey schedule and the synthetic-world scales —
// everything else Config.Fingerprint covers.
func (f *Flags) World() *Flags {
	c := &f.cfg
	f.fs.IntVar(&c.MonkeyEvents, "events", c.MonkeyEvents, "monkey events per app")
	f.fs.IntVar(&f.throttleMS, "throttle", f.throttleMS, "monkey throttle between events (ms, virtual)")
	f.fs.Float64Var(&c.DomainScale, "domain-scale", c.DomainScale, "fraction of the paper's 14,140-domain universe")
	f.fs.Float64Var(&c.MethodScale, "method-scale", c.MethodScale, "fraction of the paper's 49,138 mean methods per apk")
	f.fs.Float64Var(&c.VolumeScale, "volume-scale", c.VolumeScale, "traffic volume scale (1.0 = paper's ~1.23 MB/app)")
	return f
}

// Durability registers -artifacts, -journal, -resume.
func (f *Flags) Durability() *Flags {
	c := &f.cfg
	f.fs.StringVar(&c.ArtifactDir, "artifacts", "", "persist per-run raw evidence (apk/pcap/reports/trace) into this directory")
	f.fs.StringVar(&c.Journal, "journal", "", "append a checksummed write-ahead log of campaign progress to this file")
	f.fs.BoolVar(&c.Resume, "resume", false, "replay the -journal log and continue the campaign instead of restarting (requires the same -artifacts store)")
	return f
}

// Faults registers the retry policy and the fault injector.
func (f *Flags) Faults() *Flags {
	c := &f.cfg
	f.fs.BoolVar(&c.ContinueOnError, "continue-on-error", false, "keep the fleet running past individual app failures")
	f.fs.DurationVar(&c.RunTimeout, "run-timeout", 0, "per-run attempt deadline (0 = none)")
	f.fs.IntVar(&c.MaxAttempts, "max-attempts", 1, "run attempts per app before giving up (retries with backoff)")
	f.fs.DurationVar(&c.RetryBackoff, "retry-backoff", 0, "base backoff between attempts, doubled per retry (charged to the retry ledger, never slept)")
	f.fs.Float64Var(&c.FaultRate, "fault-rate", 0, "fraction of apps hit by an injected fault on their first attempt [0,1]")
	f.fs.Float64Var(&c.FaultPoisonRate, "fault-poison", 0, "fraction of faulted apps whose fault repeats on every attempt [0,1]")
	f.fs.StringVar(&f.faultClasses, "fault-classes", "", "comma-separated fault classes to inject (default all): emulator-abort,stall-run,capture-truncate,datagram-drop,hook-fault; opt-in crash classes: journal-crash,journal-tear,artifact-flip")
	return f
}

// Outputs registers -events-out and -trace-out.
func (f *Flags) Outputs() *Flags {
	f.fs.StringVar(&f.eventsOut, "events-out", "", "write the campaign's deterministic event log as JSONL to this file after the run (a -shards parent or -merge-shards merger writes the whole campaign's: each shard's log travels in its outcome file)")
	f.fs.StringVar(&f.traceOut, "trace-out", "", "write per-run span traces as JSONL to this file after the fleet (a -shards parent or -merge-shards merger writes the whole campaign's: each shard's spans travel in its outcome file)")
	return f
}

// Ops registers -metrics-addr and the Outputs, and gives the invocation
// telemetry even when none of them is set.
func (f *Flags) Ops() *Flags {
	f.opsGroup = true
	f.fs.StringVar(&f.metricsAddr, "metrics-addr", "", "serve the live ops endpoint (dashboard at /, SSE events at /events, JSON snapshot at /debug/vars, pprof) on this address while the fleet runs")
	return f.Outputs()
}

// ShardFlags registers -shards and the child-mode pair -shard-index /
// -shard-out. Whether a -shards N parent runs in-process shards or shard
// processes is the binary's choice.
func (f *Flags) ShardFlags() *Flags {
	f.fs.IntVar(&f.Shards, "shards", 1, "split the campaign into N shards run under a coordinator and merge their results (byte-identical to -shards 1 when -workers >= N)")
	f.fs.IntVar(&f.ShardIndex, "shard-index", -1, "run only this shard of an N-shard split and exit (child-process mode; requires -shards and -shard-out)")
	f.fs.StringVar(&f.shardOut, "shard-out", "", "write the shard's outcome (ledger, snapshot, encoded partial) to this file for the parent to merge")
	return f
}

// Supervision registers what only a process-mode parent uses: the
// coordinator WAL, the liveness probes, and the process-level chaos
// schedule (plus the -chaos-kill-after order it issues to children).
func (f *Flags) Supervision() *Flags {
	p := &f.proc
	f.fs.StringVar(&f.cfg.CoordinatorWAL, "coordinator-wal", "", "coordinator write-ahead log for crash-safe -shards supervision; a killed parent re-run with -resume verifies sealed shard outcomes and continues without resetting the takeover budget (defaults to <journal>.coordinator when -journal is set)")
	f.fs.IntVar(&p.ProbeBasePort, "probe-base-port", 0, "liveness: child shard i serves /healthz on 127.0.0.1:(port+i) and the parent kills shards that stop answering (0 = off)")
	f.fs.IntVar(&p.ProbeStrikes, "probe-strikes", 3, "consecutive failed /healthz probes before a shard is declared dead (transient timeouts don't burn takeover budget)")
	f.fs.DurationVar(&p.StallDeadline, "stall-deadline", 0, "declare a live shard dead when its apps-completed watermark (/debug/vars) stops advancing for this long (0 = off; needs -probe-base-port)")
	f.fs.Uint64Var(&p.ChaosSeed, "chaos-seed", 0, "seed for the deterministic process-level chaos schedule")
	f.fs.IntVar(&p.ChaosKill, "chaos-kill", 0, "chaos: SIGKILL this many shard children mid-run, plus the coordinator itself mid-campaign when a WAL is active; re-run with -resume to converge")
	f.fs.IntVar(&f.cfg.ChaosKillAfterRuns, "chaos-kill-after", 0, "child mode: SIGKILL this shard process after N terminal run outcomes (issued by the parent's chaos schedule)")
	return f
}

// Config is the flags→Config copy, to be called after Parse: the bound
// values plus the cross-flag validation every binary shares. A -shards
// parent with a journal but no explicit -coordinator-wal gets the
// default one next to the journal.
func (f *Flags) Config() (libspector.Config, error) {
	cfg := f.cfg
	cfg.Throttle = time.Duration(f.throttleMS) * time.Millisecond
	var err error
	if cfg.FaultClasses, err = faults.ParseClasses(f.faultClasses); err != nil {
		return cfg, err
	}
	switch {
	case cfg.Resume && cfg.Journal == "":
		return cfg, fmt.Errorf("-resume requires -journal")
	case cfg.CoordinatorWAL != "" && f.Shards <= 1:
		return cfg, fmt.Errorf("-coordinator-wal requires -shards > 1")
	case f.proc.ChaosKill > 0 && cfg.Journal == "":
		// Killed shards can only be taken over from their journals; chaos
		// without one would just fail the campaign.
		return cfg, fmt.Errorf("-chaos-kill requires -journal")
	case f.ShardIndex >= 0 && f.eventsOut != "":
		return cfg, fmt.Errorf("-events-out belongs to the merging parent: a -shard-index child's events travel in its -shard-out file")
	case f.ShardIndex >= 0 && f.traceOut != "":
		return cfg, fmt.Errorf("-trace-out belongs to the merging parent: a -shard-index child's spans travel in its -shard-out file")
	case f.Shards > 1 && f.ShardIndex < 0 && cfg.CoordinatorWAL == "" && cfg.Journal != "":
		cfg.CoordinatorWAL = cfg.Journal + ".coordinator"
	}
	return cfg, nil
}

// Open is Config plus the invocation's observability wiring: telemetry,
// event bus, ops endpoint, and event log, installed on the returned
// config. Telemetry is virtual by default, so same-flag runs stay
// byte-identical (modulo wall-clock lines); opting into the live ops
// endpoint switches to wall-clock telemetry, which adds the wall-only
// series to the snapshot, except in a shard child: its telemetry is
// sealed into its outcome. The event bus exists only when something
// consumes it — the ops endpoint streams it over SSE, -events-out records
// the deterministic subset, a shard child seals its shard's log into
// its outcome — so an unobserved run never pays for publishing. The
// caller must Close.
func (f *Flags) Open() (libspector.Config, error) {
	cfg, err := f.Config()
	child := f.ShardIndex >= 0
	if err != nil || (!f.opsGroup && f.eventsOut == "" && f.traceOut == "" && !child) {
		return cfg, err
	}
	f.Tel = obs.NewVirtual(nil)
	if f.metricsAddr != "" && !child {
		f.Tel = obs.New()
	}
	if f.metricsAddr != "" || f.eventsOut != "" || child {
		f.Tel.SetBus(obs.NewBus(f.Tel.Metrics()))
	}
	if f.eventsOut != "" {
		f.Events = obs.NewEventLog()
		f.Events.AttachTo(f.Tel.Bus())
	}
	if f.metricsAddr != "" {
		ops, err := obs.ServeOps(f.metricsAddr, f.Tel.Metrics(), f.Tel.Bus())
		if err != nil {
			return cfg, fmt.Errorf("starting ops endpoint: %w", err)
		}
		f.ops = ops
		fmt.Printf("Ops endpoint live on http://%s/ (dashboard; /events SSE, /debug/vars, /debug/pprof).\n", ops.Addr())
	}
	cfg.Telemetry = f.Tel
	return cfg, nil
}

// Close stops the ops endpoint, if Open started one.
func (f *Flags) Close() {
	if f.ops != nil {
		_ = f.ops.Close()
	}
}

// WriteOutputs writes what -trace-out and -events-out asked for after a
// campaign, whichever way it ran or merged.
func (f *Flags) WriteOutputs() error {
	if f.traceOut != "" {
		if err := f.Tel.Tracer().WriteFile(f.traceOut); err != nil {
			return fmt.Errorf("writing traces: %w", err)
		}
		fmt.Printf("Wrote %d spans to %s.\n", f.Tel.Tracer().SpanCount(), f.traceOut)
	}
	if f.Events != nil {
		if err := f.Events.WriteFile(f.eventsOut); err != nil {
			return fmt.Errorf("writing event log: %w", err)
		}
		fmt.Printf("Wrote %d events to %s.\n", f.Events.Len(), f.eventsOut)
	}
	return nil
}

// RunShardChild is -shard-index mode: run exactly one shard of the N-way
// split and hand its outcome file, telemetry included, to the parent.
func (f *Flags) RunShardChild(ctx context.Context, cfg libspector.Config) error {
	if f.shardOut == "" {
		return fmt.Errorf("-shard-index requires -shard-out")
	}
	exp, err := libspector.NewExperiment(cfg)
	if err != nil {
		return err
	}
	child := libspector.ShardChild{Index: f.ShardIndex, Shards: f.Shards, Out: f.shardOut}
	if err := exp.RunShardChild(ctx, child); err != nil {
		return err
	}
	fmt.Printf("Shard %d/%d done -> %s\n", f.ShardIndex, f.Shards, f.shardOut)
	return nil
}

// RunShardProcesses is the -shards N process-mode parent: the shared
// runner with a child command that re-executes this binary on ChildArgs.
func (f *Flags) RunShardProcesses(ctx context.Context, exp *libspector.Experiment) (*libspector.CampaignResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	opts := f.proc
	opts.Command = func(ctx context.Context, child libspector.ShardChild) *exec.Cmd {
		if child.Attempt > 0 {
			fmt.Printf("  [takeover] shard %d re-spawning with -resume (attempt %d)\n", child.Index, child.Attempt)
		}
		if child.KillAfter > 0 {
			fmt.Printf("  [chaos] shard %d will SIGKILL itself after %d runs\n", child.Index, child.KillAfter)
		}
		cmd := exec.CommandContext(ctx, self, f.ChildArgs(child)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		return cmd
	}
	return exp.RunShardProcesses(ctx, f.Shards, opts)
}

// ChildArgs renders the argv for one shard child: every explicitly-set
// flag that describes the campaign, so the child sees the parent's
// configuration, plus the per-incarnation flags the parent owns — which
// are excluded from the inherited set and re-issued from child.
func (f *Flags) ChildArgs(child libspector.ShardChild) []string {
	var args []string
	f.fs.Visit(func(fl *flag.Flag) {
		switch fl.Name {
		case "shards", "shard-index", "shard-out", "resume", "events-out", "trace-out", "metrics-addr",
			"coordinator-wal", "probe-base-port", "probe-strikes", "stall-deadline",
			"chaos-seed", "chaos-kill", "chaos-kill-after":
			return
		}
		args = append(args, "-"+fl.Name+"="+fl.Value.String())
	})
	args = append(args,
		fmt.Sprintf("-shards=%d", child.Shards),
		fmt.Sprintf("-shard-index=%d", child.Index),
		"-shard-out="+child.Out)
	if child.Resume {
		args = append(args, "-resume")
	}
	if child.MetricsAddr != "" {
		args = append(args, "-metrics-addr="+child.MetricsAddr)
	}
	if child.KillAfter > 0 {
		args = append(args, fmt.Sprintf("-chaos-kill-after=%d", child.KillAfter))
	}
	return args
}

// PrintDegraded prints the degraded-fleet ledger — failures,
// quarantines, never-run apps, retry recoveries — or nothing for a
// healthy campaign.
func PrintDegraded(acct dispatch.Accounting, failures []dispatch.RunFailure, quarantined []dispatch.QuarantinedApp) {
	if len(failures) == 0 && len(quarantined) == 0 && acct.NotRun == 0 {
		return
	}
	fmt.Printf("Degraded fleet: %d failed, %d quarantined, %d never run — coverage %.1f%% of the analyzable corpus.\n",
		acct.Failed, acct.Quarantined, acct.NotRun, 100*acct.Coverage())
	for _, q := range quarantined {
		fmt.Printf("  quarantined app %d after %d attempts: %v\n", q.AppIndex, q.Attempts, q.LastErr)
	}
	if acct.Retried > 0 {
		fmt.Printf("  %d apps recovered by retries (%d attempts total, %s backoff charged).\n",
			acct.Retried, acct.Attempts, acct.Backoff)
	}
}
