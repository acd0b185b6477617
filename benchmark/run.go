package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"
)

// runOptions parameterize one run of one workload in this process.
type runOptions struct {
	w       workload
	seed    uint64
	seconds float64
	// tmpRoot is where campaign directories are made (and removed).
	tmpRoot string
	// minCampaigns is the fewest timed campaigns a run reports a median
	// over, however slow they are.
	minCampaigns int
	// setupReps is how many constructions feed the setup_s median.
	setupReps int
	// pins, when non-nil, is checked against campaign 0.
	pins *golden
	// outDir receives trace-<workload>.jsonl from a traced run.
	outDir string
}

// pinFor returns the golden pin that applies to campaign 0 of this run.
func (o runOptions) pinFor() (pin, bool) {
	if o.pins == nil || o.pins.Seed != o.seed {
		return pin{}, false
	}
	p, ok := o.pins.Workloads[o.w.name]
	return p, ok
}

// warmupApps is the size of the untimed campaign that opens a run: enough
// to fill the pcap and obs pools and bind the loopback collector once.
const warmupApps = 8

// runReport is what one run hands to its printer.
type runReport struct {
	result driverResult
	detail runDetail
	// elapsed is the measuring phase's wall time.
	elapsed time.Duration
}

// iteration runs one campaign of the workload in a fresh directory and
// removes the directory again. For a resume workload the untimed prep
// campaign comes first and its outputs must match the resumed ones.
func iteration(ctx context.Context, o runOptions, seed uint64, apps int) (timed *campaign, err error) {
	dir, err := os.MkdirTemp(o.tmpRoot, o.w.name+"-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
	}()
	files := campaignFiles{dir: dir}
	var prep *campaign
	if o.w.resume {
		if prep, err = runFacade(ctx, o.w, seed, apps, workers(), files, false, telDefault); err != nil {
			return nil, fmt.Errorf("prep: %w", err)
		}
	}
	if timed, err = runFacade(ctx, o.w, seed, apps, workers(), files, o.w.resume, telDefault); err != nil {
		return nil, err
	}
	if err := timed.checkAccounting(); err != nil {
		return nil, err
	}
	if prep != nil && (prep.FiguresSHA != timed.FiguresSHA || prep.StoreSHA != timed.StoreSHA) {
		return nil, fmt.Errorf("resumed campaign diverged from its prep: figures %s vs %s, store %s vs %s",
			timed.FiguresSHA, prep.FiguresSHA, timed.StoreSHA, prep.StoreSHA)
	}
	return timed, nil
}

// runEndToEnd is an untraced run: a warm-up, then campaigns over derived
// seeds until the time budget is spent, then each metric aggregated over
// the campaigns.
func runEndToEnd(ctx context.Context, o runOptions) (*runReport, error) {
	apps := o.w.apps
	if _, err := iteration(ctx, o, o.seed, warmupApps); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	var setups []float64
	for i := 0; i < o.setupReps; i++ {
		d, err := timeSetup(o.w, o.seed, apps)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}

	samples := map[string][]float64{}
	rep := &runReport{detail: runDetail{Workload: o.w.name, Seed: o.seed, Samples: samples}}
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	for k := 0; k < o.minCampaigns || time.Since(start) < budget; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Start every campaign from a collected heap, so one campaign's
		// garbage is not charged to the next one's GC.
		runtime.GC()
		seed := campaignSeed(o.seed, k)
		c, err := iteration(ctx, o, seed, apps)
		if err != nil {
			return nil, fmt.Errorf("campaign %d (seed %d): %w", k, seed, err)
		}
		samples["apps_per_s"] = append(samples["apps_per_s"], float64(c.Apps)/c.Wall.Seconds())
		samples["cpu_ms_per_app"] = append(samples["cpu_ms_per_app"], c.perApp(float64(c.CPU)/1e6))
		samples["allocs_per_app"] = append(samples["allocs_per_app"], c.perApp(float64(c.Allocs)))
		samples["alloc_kb_per_app"] = append(samples["alloc_kb_per_app"], c.perApp(float64(c.AllocBytes)/1024))
		samples["disk_kb_per_app"] = append(samples["disk_kb_per_app"], c.perApp(float64(c.DiskBytes)/1024))
		samples["failed_frac"] = append(samples["failed_frac"], c.perApp(float64(c.failedApps())))
		rep.result.Attempted += c.Apps
		rep.result.Failed += c.failedApps()
		rep.detail.Campaigns = append(rep.detail.Campaigns, campaignDetail{
			Seed: seed, Apps: c.Apps, FiguresSHA: c.FiguresSHA, StoreSHA: c.StoreSHA,
			Attempts: c.acct().Attempts, Retried: c.acct().Retried,
		})
	}
	rep.elapsed = time.Since(start)
	samples["setup_s"] = setups
	samples["peak_rss_mb"] = []float64{peakRSSMiB()}

	if p, ok := o.pinFor(); ok {
		rep.detail.Problems = append(rep.detail.Problems, p.check(rep.detail.Campaigns[0])...)
	}
	if rep.result.Failed > 0 {
		rep.detail.Problems = append(rep.detail.Problems, fmt.Sprintf("%d of %d apps failed, were quarantined or never ran", rep.result.Failed, rep.result.Attempted))
	}
	rep.result.Correct = len(rep.detail.Problems) == 0
	rep.result.Metrics = map[string]metricValue{}
	for _, m := range endToEnd {
		rep.result.Metrics[m.Name] = metricValue{Value: m.of(samples[m.Name]), Unit: m.Unit}
	}
	return rep, nil
}
