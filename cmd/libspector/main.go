// Command libspector runs the full measurement pipeline end-to-end:
// generate the synthetic app corpus, exercise every app in the emulated
// fleet under monkey, attribute traffic to origin-libraries, and print
// every table and figure of the paper's evaluation.
//
// Usage:
//
//	libspector [-apps N] [-seed S] [-workers W] [-events E]
//	           [-journal campaign.wal] [-resume]
//	           [-metrics-addr :8321] [-trace-out traces.jsonl] [-events-out events.jsonl]
//	libspector -shards N [-journal campaign.wal -artifacts DIR] [-probe-base-port P]
//	libspector audit -artifacts DIR [-journal campaign.wal]
//	libspector dump -pcap FILE.pcap|DIR/<sha>.run [-mode flows|packets|dns] [-n N]
//	libspector gen -out corpus/ [-apps 100] [-seed 42]
//	libspector gen -verify corpus/
//
// The campaign flags are declared in internal/fleetflags. Every campaign
// routes its supervisor reports through the UDP collector and its apks
// through the database server. With -shards N the campaign runs as N
// child processes of this binary under the supervising coordinator
// (libspector.RunShardProcesses). The audit, dump and gen subcommands
// work on a campaign's stored evidence, its captures and its corpus.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"libspector"
	"libspector/internal/dispatch"
	"libspector/internal/fleetflags"
	"libspector/internal/journal"
	"libspector/internal/obs"
	"libspector/internal/report"
)

// runAudit implements "libspector audit": verify every stored run's
// evidence (apk checksum, reports framing, meta integrity) and, when a
// journal is given, cross-check each journaled completion against the
// store. Exits non-zero when anything fails verification, so the command
// slots into scripts as a pre-resume gate.
func runAudit(args []string) error {
	fs := flag.NewFlagSet("libspector audit", flag.ContinueOnError)
	dir := fs.String("artifacts", "", "artifact store directory to audit (required)")
	journalPath := fs.String("journal", "", "campaign journal to cross-check against the store")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("audit: -artifacts is required")
	}
	store, err := dispatch.OpenArtifactStore(*dir)
	if err != nil {
		return err
	}
	rep, err := store.Audit()
	if err != nil {
		return err
	}
	fmt.Printf("Audited %d stored runs: %d ok, %d corrupt, %d incomplete.\n",
		len(rep.OK)+len(rep.Corrupt), len(rep.OK), len(rep.Corrupt), len(rep.Incomplete))
	for _, e := range rep.Corrupt {
		fmt.Printf("  corrupt    %s: %v\n", e.SHA, e.Err)
	}
	for _, sha := range rep.Incomplete {
		fmt.Printf("  incomplete %s\n", sha)
	}
	var unbacked int
	if *journalPath != "" {
		replay, err := journal.Read(*journalPath)
		if err != nil {
			return fmt.Errorf("audit: %w", err)
		}
		if replay.TornBytes > 0 {
			fmt.Printf("Journal has a torn %d-byte tail (crash mid-append; resume truncates it).\n", replay.TornBytes)
		}
		// The journal records bare shas; a sharded store lists a shard's
		// runs as shard-NNN/<sha>.
		keys := make(map[string]string, len(rep.OK)+len(rep.Corrupt))
		for _, key := range rep.OK {
			keys[filepath.Base(key)] = key
		}
		for _, e := range rep.Corrupt {
			keys[filepath.Base(e.SHA)] = e.SHA
		}
		apps := make([]int, 0, len(replay.Outcomes))
		for app := range replay.Outcomes {
			apps = append(apps, app)
		}
		sort.Ints(apps)
		var completed int
		for _, app := range apps {
			rec := replay.Outcomes[app]
			if rec.Outcome != journal.OutcomeRun || rec.ArtifactSHA == "" {
				continue
			}
			completed++
			key, ok := keys[rec.ArtifactSHA]
			if !ok {
				key = rec.ArtifactSHA
			}
			if err := store.Verify(key); err != nil {
				unbacked++
				fmt.Printf("  journal app %d: evidence %s fails verification: %v\n", app, rec.ArtifactSHA, err)
			}
		}
		fmt.Printf("Cross-checked %d journaled completions against the store; %d lack intact evidence.\n",
			completed, unbacked)
	}
	if !rep.Clean() || unbacked > 0 {
		return fmt.Errorf("audit: %d corrupt, %d incomplete, %d journaled runs without intact evidence",
			len(rep.Corrupt), len(rep.Incomplete), unbacked)
	}
	fmt.Println("Store is clean.")
	return nil
}

func main() {
	// SIGINT/SIGTERM cancel the fleet context: workers stop within one
	// in-flight app and whatever completed is still reported below. A
	// second signal kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, errorLine(err))
		os.Exit(1)
	}
}

// errorLine is the line a failed run prints: the error behind the
// program's name, which the facade's errors already start with.
func errorLine(err error) string {
	msg := err.Error()
	if !strings.HasPrefix(msg, "libspector:") {
		msg = "libspector: " + msg
	}
	return msg
}

func run(ctx context.Context, args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "audit":
			return runAudit(args[1:])
		case "dump":
			return runDump(args[1:])
		case "gen":
			return runGen(ctx, args[1:])
		}
	}
	fs := flag.NewFlagSet("libspector", flag.ContinueOnError)
	flags := fleetflags.New(fs).Corpus(300, 0).World().Durability().Faults().Ops().ShardFlags().Supervision()
	topN := fs.Int("top", 15, "entries in the Figure 3 rankings")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := flags.Open()
	if err != nil {
		return err
	}
	defer flags.Close()
	if flags.ShardIndex >= 0 {
		return flags.RunShardChild(ctx, cfg)
	}

	fmt.Printf("Generating world (seed=%d, %d apps) and running the fleet...\n", cfg.Seed, cfg.Apps)
	exp, err := libspector.NewExperiment(cfg)
	if err != nil {
		return err
	}
	start := time.Now()
	var snap obs.Snapshot
	if flags.Shards > 1 {
		// -shards N: the campaign runs as N child processes of this binary
		// (-shard-index mode) under the supervising coordinator, and the
		// report renders from the merged result.
		res, err := flags.RunShardProcesses(ctx, exp)
		if err != nil {
			return err
		}
		acct := res.Accounting
		fmt.Printf("Sharded fleet done in %s: %d runs across %d shards (%d takeovers), %d ARM-only apps skipped.\n",
			time.Since(start).Round(time.Millisecond), acct.Completed, res.Shards, res.Takeovers, acct.SkippedARMOnly)
		fleetflags.PrintDegraded(acct, res.Failures, res.Quarantined)
		snap = res.Snapshot
	} else {
		if err := exp.RunContext(ctx); err != nil {
			if ctx.Err() == nil || exp.Aggregates() == nil {
				return err
			}
			// Interrupted mid-fleet: the streaming accumulator already holds
			// everything that completed, so report the partial view.
			fmt.Printf("Interrupted after %s — reporting partial aggregates over %d completed runs.\n",
				time.Since(start).Round(time.Millisecond), exp.Result().Accounting.Completed)
		} else {
			acct := exp.Result().Accounting
			fmt.Printf("Fleet done in %s: %d runs, %d ARM-only apps skipped.\n",
				time.Since(start).Round(time.Millisecond), acct.Completed, acct.SkippedARMOnly)
		}
		res := exp.Result()
		fleetflags.PrintDegraded(res.Accounting, res.Failures, res.Quarantined)
		// The fleet, collector, and attribution series all render from the
		// one telemetry snapshot.
		snap = flags.Tel.Metrics().Snapshot()
	}
	fmt.Printf("\n%s\n\n", obs.Render(snap))

	// Every section renders from the aggregates, sharded or not.
	in := report.Inputs{Aggregates: exp.Aggregates(), DomainCounts: exp.TableICounts(), TopN: *topN}
	for _, s := range report.Sections {
		fmt.Println(s.Render(in))
	}
	return flags.WriteOutputs()
}
