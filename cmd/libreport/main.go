// Command libreport regenerates a single table or figure of the paper's
// evaluation from a fresh experiment run.
//
// Usage:
//
//	libreport -figure F9 [-apps N] [-seed S]
//
// Figure ids: T1, F2, F3, F4, F5, F6, F7, F8, F9, F10, E1 (cost),
// E2 (energy), E4 (baselines), totals, json (full machine-readable
// summary).
//
// With -artifacts DIR the report is regenerated from previously persisted
// run evidence (see libspector -artifacts) instead of a fresh fleet run.
//
// With -store PATH a run also writes the queryable attribution record
// store (internal/resultstore); the -query-app/-query-library/
// -query-domain/-group-by flags then answer rollup queries purely from
// that store on disk, with no fleet run at all. -merge-shards merges the
// outcome files of -shard-index children into the report (with -store,
// the store; with -events-out, the event log the outcomes carry).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"libspector"
	"libspector/internal/analysis"
	"libspector/internal/baseline"
	"libspector/internal/corpus"
	"libspector/internal/dispatch"
	"libspector/internal/fleetflags"
	"libspector/internal/report"
	"libspector/internal/resultstore"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "libreport:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("libreport", flag.ContinueOnError)
	// The campaign flags libreport shares with the fleet CLIs; -store and
	// -artifacts keep libreport's own meanings (a record store path, a
	// directory to reanalyze), so those groups are not adopted.
	flags := fleetflags.New(fs).Corpus(200, 0).ShardFlags().EventLog()
	var (
		figure      = fs.String("figure", "totals", "table/figure id: T1,F2..F10,E1,E2,E4,totals,json")
		topN        = fs.Int("top", 15, "entries in the Figure 3 rankings")
		artifacts   = fs.String("artifacts", "", "reanalyze persisted run evidence from this directory instead of running a fleet")
		csvDir      = fs.String("csv", "", "also write the figure series as CSV files into this directory")
		mergeShards = fs.String("merge-shards", "", "comma-separated shard outcome files to merge into the report instead of running a fleet")
		store       = fs.String("store", "", "attribution record store path: written during a run, read by the -query-* flags")
		inspectWAL  = fs.String("wal", "", "inspect a coordinator write-ahead log: print the campaign header and supervision history (attempts, takeovers, seals), no fleet run")
		queryApp    = fs.String("query-app", "", "query the -store for one app SHA (no fleet run)")
		queryLib    = fs.String("query-library", "", "query the -store for one origin library (no fleet run)")
		queryDomain = fs.String("query-domain", "", "query the -store for one domain (no fleet run)")
		groupBy     = fs.String("group-by", "", "group -store query results: app, library, or domain")
		topGroups   = fs.Int("top-groups", 10, "grouped query rows to print (0 = all)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *inspectWAL != "" {
		return inspectCoordinatorWAL(*inspectWAL)
	}

	if *queryApp != "" || *queryLib != "" || *queryDomain != "" || *groupBy != "" {
		// Query mode answers purely from the on-disk store: no world
		// generation, no fleet, no in-memory fold.
		return queryStore(*store, *queryApp, *queryLib, *queryDomain, *groupBy, *topGroups)
	}

	// -events-out records the deterministic campaign event log; virtual
	// telemetry keeps same-seed logs byte-identical.
	cfg, err := flags.Open()
	if err != nil {
		return err
	}
	defer flags.Close()
	cfg.ResultStore = *store
	if flags.ShardIndex >= 0 {
		return flags.RunShardChild(context.Background(), cfg)
	}
	exp, err := libspector.NewExperiment(cfg)
	if err != nil {
		return err
	}
	// The record-level dataset backs E4 and the CSV export; a sharded run
	// only ever materializes the mergeable aggregates.
	var ds *analysis.Dataset
	switch {
	case *mergeShards != "":
		outs, err := readOutcomes(*mergeShards)
		if err != nil {
			return err
		}
		if _, err := exp.MergeShardOutcomes(outs); err != nil {
			return err
		}
	case flags.Shards > 1:
		if _, err := exp.RunSharded(context.Background(), flags.Shards); err != nil {
			return err
		}
	case *artifacts != "":
		if ds, err = reanalyze(exp, *artifacts); err != nil {
			return err
		}
	default:
		if err := exp.Run(); err != nil {
			return err
		}
		ds = exp.Dataset()
	}
	if err := flags.WriteOutputs(); err != nil {
		return err
	}
	ag := exp.Aggregates()
	if ds != nil {
		ag = ds.Aggregates()
	}

	if *csvDir != "" {
		if ds == nil {
			return fmt.Errorf("-csv needs the record-level dataset, which a sharded run does not materialize")
		}
		if err := writeCSVs(ds, *csvDir); err != nil {
			return err
		}
	}

	switch strings.ToUpper(*figure) {
	case "TOTALS":
		fmt.Println(report.Totals(ag.ComputeTotals()))
	case "T1":
		for _, d := range exp.World().Domains {
			exp.Domains().Categorize(d.Name)
		}
		fmt.Println(report.TableI(exp.Domains().Counts()))
	case "F2":
		fmt.Println(report.Fig2(ag.Fig2CategoryTransfer()))
	case "F3":
		fmt.Println(report.Fig3(ag.Fig3TopOrigins(*topN), ag.Fig3TopTwoLevel(*topN)))
	case "F4":
		fmt.Println(report.Fig4(ag.Fig4CDF()))
	case "F5":
		fmt.Println(report.Fig5(ag.Fig5FlowRatios()))
	case "F6":
		fmt.Println(report.Fig6(ag.Fig6AnTShares()))
	case "F7":
		fmt.Println(report.Fig7(ag.Fig7Averages()))
	case "F8":
		fmt.Println(report.Fig8(ag.Fig8AppCategoryAverages()))
	case "F9":
		fmt.Println(report.Fig9(ag.Fig9Heatmap()))
	case "F10":
		fmt.Println(report.Fig10(ag.Fig10Coverage()))
	case "E1":
		costs := analysis.CostPerCategory(ag.Fig7Averages(), analysis.NewCostModel(),
			corpus.LibAdvertisement, corpus.LibMobileAnalytics,
			corpus.LibSocialNetwork, corpus.LibDigitalIdentity, corpus.LibGameEngine)
		fmt.Println(report.Costs(costs))
	case "E2":
		fmt.Println(report.Energy(analysis.NewEnergyModel(), ag.Fig7Averages().PerLibrary[corpus.LibAdvertisement]))
	case "E4":
		if ds == nil {
			return fmt.Errorf("E4 compares record-level baselines, which a sharded run does not materialize")
		}
		fmt.Println(report.Baselines(baseline.CompareUA(ds), baseline.CompareHostname(ds), baseline.CompareContentType(ds)))
	case "JSON":
		if err := ag.Summarize(*topN).WriteJSON(os.Stdout); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown figure id %q", *figure)
	}
	return nil
}

// queryStore answers a -query-*/-group-by request from the on-disk
// attribution store alone.
func queryStore(path, app, lib, domain, groupBy string, topGroups int) error {
	if path == "" {
		return fmt.Errorf("query flags require -store")
	}
	q := resultstore.Query{AppSHA: app, Origin: lib, Domain: domain}
	switch groupBy {
	case "":
	case "app":
		q.GroupBy = resultstore.GroupApp
	case "library":
		q.GroupBy = resultstore.GroupOrigin
	case "domain":
		q.GroupBy = resultstore.GroupDomain
	default:
		return fmt.Errorf("unknown -group-by %q (want app, library, or domain)", groupBy)
	}
	st, err := resultstore.Open(path)
	if err != nil {
		return err
	}
	res, err := st.Query(q)
	if err != nil {
		return err
	}
	r := res.Rollup
	fmt.Printf("store %s: %d records in %d blocks (%d scanned)\n",
		path, st.Records(), st.Blocks(), res.BlocksScanned)
	fmt.Printf("flows %d (%d attributed)  bytes %d sent / %d received  packets %d/%d\n",
		r.Flows, r.Attributed, r.BytesSent, r.BytesReceived, r.PacketsSent, r.PacketsRecv)
	fmt.Printf("distinct: %d apps, %d libraries, %d domains\n", r.Apps, r.Origins, r.Domains)
	if q.GroupBy != resultstore.GroupNone {
		rows := res.Groups
		if topGroups > 0 && len(rows) > topGroups {
			rows = rows[:topGroups]
		}
		fmt.Printf("top %d of %d groups by %s:\n", len(rows), len(res.Groups), groupBy)
		for _, g := range rows {
			key := g.Key
			if key == "" {
				key = "(none)"
			}
			fmt.Printf("  %-40s flows %6d  bytes %12d\n", key, g.Flows, g.BytesSent+g.BytesReceived)
		}
	}
	return nil
}

// readOutcomes loads the comma-separated shard outcome files for
// -merge-shards, in the given (shard) order.
func readOutcomes(list string) ([]*dispatch.ShardOutcome, error) {
	var outs []*dispatch.ShardOutcome
	for _, p := range strings.Split(list, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		o, err := dispatch.ReadShardOutcome(p)
		if err != nil {
			return nil, err
		}
		outs = append(outs, o)
	}
	if len(outs) == 0 {
		return nil, fmt.Errorf("-merge-shards lists no outcome files")
	}
	return outs, nil
}

// reanalyze rebuilds the dataset from persisted artifacts: it feeds the
// stored apks through the LibRadar detection pass and re-runs the offline
// attribution over the stored captures and reports.
func reanalyze(exp *libspector.Experiment, dir string) (*analysis.Dataset, error) {
	store, err := dispatch.NewArtifactStore(dir)
	if err != nil {
		return nil, err
	}
	_, incomplete, err := store.List()
	if err != nil {
		return nil, err
	}
	if len(incomplete) > 0 {
		fmt.Fprintf(os.Stderr, "libreport: skipping %d incomplete artifact entries: %v\n", len(incomplete), incomplete)
	}
	runs, err := store.Reanalyze(exp.Attributor(), exp.Detector())
	if err != nil {
		return nil, err
	}
	exp.Detector().Finalize(2)
	b, err := analysis.NewDatasetBuilder(exp.Domains())
	if err != nil {
		return nil, err
	}
	for i, run := range runs {
		if err := b.Observe(i, run); err != nil {
			return nil, err
		}
	}
	return b.Finish(exp.Detector())
}

// writeCSVs exports the plottable figure series.
func writeCSVs(ds *analysis.Dataset, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating csv dir: %w", err)
	}
	write := func(name string, fill func(w *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("creating %s: %w", name, err)
		}
		defer func() { _ = f.Close() }()
		return fill(f)
	}
	if err := write("fig2_category_matrix.csv", func(w *os.File) error {
		return report.Fig2CSV(w, ds.Fig2CategoryTransfer())
	}); err != nil {
		return err
	}
	if err := write("fig4_cdf.csv", func(w *os.File) error {
		return report.Fig4CSV(w, ds.Fig4CDF())
	}); err != nil {
		return err
	}
	if err := write("fig5_ratios.csv", func(w *os.File) error {
		return report.Fig5CSV(w, ds.Fig5FlowRatios())
	}); err != nil {
		return err
	}
	if err := write("fig9_heatmap.csv", func(w *os.File) error {
		return report.Fig9CSV(w, ds.Fig9Heatmap())
	}); err != nil {
		return err
	}
	return write("fig10_coverage.csv", func(w *os.File) error {
		return report.Fig10CSV(w, ds.Fig10Coverage())
	})
}

// inspectCoordinatorWAL renders a coordinator write-ahead log as a
// human-readable supervision history: the campaign header, every journaled
// attempt and takeover per shard, which shards sealed an outcome, and
// whether the merge committed. Torn tails are reported, not fatal — that is
// exactly the state a killed coordinator leaves behind.
func inspectCoordinatorWAL(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	recs, err := dispatch.ReplayWAL(data)
	if err != nil && len(recs) == 0 {
		return fmt.Errorf("wal: %w", err)
	}
	for n, rec := range recs {
		switch rec.Type {
		case "campaign":
			fmt.Printf("[%3d] campaign  fingerprint=%s apps=%d shards=%d workers=%d\n",
				n, rec.Fingerprint, rec.Apps, rec.Shards, rec.Workers)
		case "attempt":
			fmt.Printf("[%3d] attempt   shard=%d attempt=%d\n", n, rec.Shard, rec.Attempt)
		case "takeover":
			fmt.Printf("[%3d] takeover  shard=%d next-attempt=%d cause=%s\n", n, rec.Shard, rec.Attempt, rec.Error)
		case "sealed":
			fmt.Printf("[%3d] sealed    shard=%d attempt=%d sha=%s\n", n, rec.Shard, rec.Attempt, rec.OutcomeSHA)
		case "done":
			fmt.Printf("[%3d] done      campaign merged and committed\n", n)
		default:
			fmt.Printf("[%3d] %-9s shard=%d\n", n, rec.Type, rec.Shard)
		}
	}
	if err != nil {
		fmt.Printf("WAL damaged after %d records: %v\n", len(recs), err)
		return nil
	}
	fmt.Printf("%d records; clean log.\n", len(recs))
	return nil
}
