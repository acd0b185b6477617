// fleetscan drives the parallel analysis fleet the way the paper's data
// collection framework does (§II-B3): a dispatcher hands apps to workers,
// each worker runs a fresh emulator image, supervisor reports travel over
// a real loopback UDP collector, and apks round-trip through the database
// server with the §III-A selection policy.
//
// It is the streaming API in miniature: a progress sink prints per-app
// events as workers complete them, Ctrl-C reports whatever finished before
// the interrupt instead of discarding the run, and the summary ends with
// the per-run join health. (Sharded, supervised, and chaos campaigns are
// cmd/libspector -shards N.)
//
//	go run ./examples/fleetscan [-apps 40] [-workers 4]
//	go run ./examples/fleetscan -apps 60 -fault-rate 0.2 -max-attempts 3
//	go run ./examples/fleetscan -apps 3000 -metrics-addr 127.0.0.1:8321
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"libspector"
	"libspector/internal/corpus"
	"libspector/internal/dispatch"
	"libspector/internal/fleetflags"
	"libspector/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "fleetscan:", err)
		os.Exit(1)
	}
}

// progress is a dispatch.Sink printing a live line per stream event.
type progress struct {
	done int
}

func (p *progress) Consume(ev dispatch.RunEvent) error {
	switch ev.Kind {
	case dispatch.EventRun:
		p.done++
		fmt.Printf("  [%3d done] app %d: %s (%d flows)\n",
			p.done, ev.AppIndex, ev.Run.AppPackage, len(ev.Run.Flows))
	case dispatch.EventSkip:
		fmt.Printf("  [   skip ] app %d: ARM-only (§III-A ABI filter)\n", ev.AppIndex)
	case dispatch.EventFailure:
		fmt.Printf("  [   fail ] app %d: %v\n", ev.AppIndex, ev.Err)
	case dispatch.EventQuarantine:
		fmt.Printf("  [quarant.] app %d after %d attempts: %v\n",
			ev.AppIndex, ev.Quarantine.Attempts, ev.Err)
	}
	return nil
}

func run(ctx context.Context) error {
	flags := fleetflags.New(flag.CommandLine).Corpus(40, 4).Faults().Ops()
	flag.Parse()
	cfg, err := flags.Open()
	if err != nil {
		return err
	}
	defer flags.Close()
	cfg.UseCollector = true // real UDP collection server
	cfg.UseStore = true     // database-server round trip per apk
	if cfg.FaultRate > 0 {
		// A faulted fleet must keep going and retry; otherwise the first
		// injected fault would abort the whole scan.
		cfg.ContinueOnError = true
		if cfg.MaxAttempts < 2 {
			cfg.MaxAttempts = 2
		}
		if cfg.RunTimeout == 0 {
			// Generous next to a normal sub-second run, but short enough
			// that a stalled demo app doesn't dominate the fleet's wall time.
			cfg.RunTimeout = 10 * time.Second
		}
	}
	exp, err := libspector.NewExperiment(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("Scanning %d apps with %d workers (UDP collector + apk store enabled)...\n", cfg.Apps, cfg.Workers)
	if err := exp.RunContext(ctx, &progress{}); err != nil {
		if ctx.Err() == nil || exp.Result() == nil {
			return err
		}
		fmt.Println("Interrupted — reporting the completed prefix of the fleet.")
	}

	res := exp.Result()
	fmt.Printf("Fleet finished in %s.\n", res.Elapsed.Round(time.Millisecond))
	// Fleet counts, collector datagram totals, and attribution joins all
	// come from the telemetry snapshot; only derived analysis figures keep
	// bespoke lines below.
	fmt.Println()
	fmt.Println(obs.Render(flags.Tel.Metrics().Snapshot()))
	fleetflags.PrintDegraded(res.Accounting, res.Failures, res.Quarantined)

	// Aggregates come from the streaming accumulator — no per-flow records
	// were retained to produce them.
	ag := exp.Aggregates()
	totals := ag.ComputeTotals()
	fmt.Printf("  traffic:             %.2f MB over %d flows to %d domains\n",
		float64(totals.TotalBytes())/1e6, totals.Flows, totals.DistinctDomains)
	fmt.Printf("  origin-libraries:    %d\n", totals.DistinctOrigins)
	fmt.Printf("  mean method coverage: %.1f%% (paper: 9.5%%)\n", ag.Fig10Coverage().Mean)
	fmt.Printf("  advertisement share:  %.1f%% of bytes (paper: 28.3%%)\n",
		100*ag.Fig2CategoryTransfer().LegendShare[corpus.LibAdvertisement])

	// Per-run join health: in a correct pipeline every flow matches a
	// supervisor report and checksums all verify.
	var unmatchedFlows, unmatchedReports, mismatches int
	for _, run := range res.Runs {
		unmatchedFlows += run.Join.UnmatchedFlows
		unmatchedReports += run.Join.UnmatchedReports
		mismatches += run.Join.ChecksumMismatch
	}
	fmt.Printf("  join health: %d unmatched flows, %d unmatched reports, %d checksum mismatches\n",
		unmatchedFlows, unmatchedReports, mismatches)
	return flags.WriteOutputs()
}
