// adaudit audits a corpus for advertisement-and-tracker traffic: per app it
// reports the AnT byte share, and for the corpus it estimates the monetary
// and battery cost of advertising traffic using the paper's §IV-D models —
// the analysis a privacy-conscious user (or app-store reviewer) would run.
//
//	go run ./examples/adaudit [-apps 60] [-seed 42]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"libspector"
	"libspector/internal/analysis"
	"libspector/internal/corpus"
	"libspector/internal/dispatch"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "adaudit:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	apps := flag.Int("apps", 60, "corpus size to audit")
	seed := flag.Uint64("seed", 42, "experiment seed")
	flag.Parse()

	cfg := libspector.DefaultConfig()
	cfg.Apps = *apps
	cfg.Seed = *seed
	exp, err := libspector.NewExperiment(cfg)
	if err != nil {
		return err
	}

	// Per-app AnT share ranking, tallied from the attributed flows as the
	// runs stream past.
	type appShare struct {
		pkg        string
		ant, total int64
	}
	antList := corpus.AnTPrefixes()
	byApp := make(map[string]*appShare)
	tally := dispatch.SinkFunc(func(ev dispatch.RunEvent) error {
		if ev.Kind != dispatch.EventRun || ev.Run == nil {
			return nil
		}
		for _, f := range ev.Run.Flows {
			if !f.Attributed() || f.BuiltinOrigin {
				continue
			}
			a := byApp[ev.Run.AppSHA]
			if a == nil {
				a = &appShare{pkg: ev.Run.AppPackage}
				byApp[ev.Run.AppSHA] = a
			}
			vol := f.TotalBytes()
			a.total += vol
			if corpus.HasPrefixInList(f.OriginLibrary, antList) {
				a.ant += vol
			}
		}
		return nil
	})
	if err := exp.RunContext(ctx, tally); err != nil {
		if ctx.Err() == nil || exp.Aggregates() == nil {
			return err
		}
		fmt.Println("Interrupted — auditing the completed prefix of the corpus.")
	}
	ag := exp.Aggregates()
	ranked := make([]*appShare, 0, len(byApp))
	for _, a := range byApp {
		ranked = append(ranked, a)
	}
	sort.Slice(ranked, func(i, j int) bool {
		si, sj := float64(ranked[i].ant)/float64(ranked[i].total), float64(ranked[j].ant)/float64(ranked[j].total)
		if si != sj {
			return si > sj
		}
		return ranked[i].pkg < ranked[j].pkg
	})

	fmt.Printf("AnT traffic audit over %d apps (seed %d)\n\n", len(ranked), *seed)
	fmt.Printf("%-28s %10s %10s %8s\n", "APP", "ANT", "TOTAL", "SHARE")
	limit := 15
	if len(ranked) < limit {
		limit = len(ranked)
	}
	for _, a := range ranked[:limit] {
		fmt.Printf("%-28s %8.2fKB %8.2fKB %7.1f%%\n",
			a.pkg, float64(a.ant)/1e3, float64(a.total)/1e3, 100*float64(a.ant)/float64(a.total))
	}

	st := ag.Fig6AnTShares()
	fmt.Printf("\nCorpus prevalence: %.0f%% AnT-only, %.0f%% some AnT, %.0f%% AnT-free (paper: 35%% / 89%% / ~10%%)\n",
		100*st.FracAnTOnly, 100*st.FracSomeAnT, 100*st.FracAnTFree)

	// §IV-D cost estimates from the measured Figure 7 averages.
	avgs := ag.Fig7Averages()
	costModel := analysis.NewCostModel()
	adBytes := avgs.PerLibrary[corpus.LibAdvertisement]
	fmt.Printf("\nEstimated user cost of advertising traffic:\n")
	fmt.Printf("  average ad volume per 8-minute session: %.2f MB\n", adBytes/1e6)
	fmt.Printf("  mobile-data cost at $%.0f/GB: $%.2f per hour of use\n",
		analysis.GoogleFiDollarsPerGB, costModel.DollarsPerHour(adBytes))
	energy := analysis.NewEnergyModel()
	joules := energy.EnergyJoules(adBytes)
	fmt.Printf("  energy: %.0f J (%.2f Wh) ≈ %.1f%% of a typical battery\n",
		joules, joules/3600, 100*energy.BatteryShare(joules))
	return nil
}
