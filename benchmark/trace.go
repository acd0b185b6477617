package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"libspector/internal/resultstore"
)

// storeLookups is how many seeded point queries the result-store read
// guard makes.
const storeLookups = 64

// runTraced is a traced run: one facade campaign per worker count, the
// staged pass that yields the layer table, and the whole-run diagnostics.
// It does a fixed amount of work — campaign 0 of the seed — rather than
// filling a time budget, and reports per-layer metrics only.
func runTraced(ctx context.Context, o runOptions) (*runReport, error) {
	w, apps := o.w, o.w.apps
	if _, err := iteration(ctx, o, o.seed, warmupApps); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	dir, err := os.MkdirTemp(o.tmpRoot, w.name+"-trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sub := func(name string) (campaignFiles, error) {
		f := campaignFiles{dir: filepath.Join(dir, name)}
		return f, os.Mkdir(f.dir, 0o755)
	}

	m := map[string]float64{}
	rep := &runReport{detail: runDetail{Workload: w.name, Seed: o.seed, Traced: true}}
	start := time.Now()

	// A resume workload prepares one finished campaign and replays it
	// three ways; every other workload runs each variant in its own
	// directory.
	facadeFiles, err := sub("facade")
	if err != nil {
		return nil, err
	}
	w1Files, stagedFiles := facadeFiles, facadeFiles
	var prep *campaign
	if w.resume {
		if prep, err = runFacade(ctx, w, o.seed, apps, workers(), facadeFiles, false, telDefault); err != nil {
			return nil, fmt.Errorf("prep: %w", err)
		}
		m["campaign.prep_s"] = prep.Wall.Seconds()
	} else {
		if w1Files, err = sub("w1"); err != nil {
			return nil, err
		}
		if stagedFiles, err = sub("staged"); err != nil {
			return nil, err
		}
	}

	c2, err := runFacade(ctx, w, o.seed, apps, workers(), facadeFiles, w.resume, telDefault)
	if err != nil {
		return nil, err
	}
	if err := c2.checkAccounting(); err != nil {
		return nil, err
	}
	problems := &rep.detail.Problems
	if prep != nil && (prep.FiguresSHA != c2.FiguresSHA || prep.StoreSHA != c2.StoreSHA) {
		*problems = append(*problems, "resumed campaign diverged from its prep")
	}
	rep.result.Attempted, rep.result.Failed = c2.Apps, c2.failedApps()
	rep.detail.Campaigns = []campaignDetail{{
		Seed: o.seed, Apps: apps, FiguresSHA: c2.FiguresSHA, StoreSHA: c2.StoreSHA,
		Attempts: c2.acct().Attempts, Retried: c2.acct().Retried,
	}}
	if p, ok := o.pinFor(); ok {
		*problems = append(*problems, p.check(rep.detail.Campaigns[0])...)
	}

	m["campaign.failed_frac"] = c2.perApp(float64(c2.failedApps()))
	m["disk.kb_per_app"] = c2.perApp(float64(c2.DiskBytes) / 1024)
	m["dispatch.attempts_per_app"] = c2.perApp(float64(c2.acct().Attempts))
	m["dispatch.retried_frac"] = c2.perApp(float64(c2.acct().Retried))
	m["dispatch.backoff_virtual_s"] = c2.acct().Backoff.Seconds()
	m["collector.dropped"] = float64(c2.Result.CollectorDropped)
	m["collector.malformed"] = float64(c2.Result.CollectorMalformed)
	if c2.GC.totalCPU > 0 {
		m["runtime.gc_cpu_frac"] = c2.GC.gcCPU / c2.GC.totalCPU
	}
	m["runtime.gc_cycles_per_app"] = c2.perApp(float64(c2.GC.cycles))

	// The single-worker baseline: what the closed loop of two is measured
	// against, and the facade run the staged pass must resemble.
	c1, err := runFacade(ctx, w, o.seed, apps, 1, w1Files, w.resume, telDefault)
	if err != nil {
		return nil, fmt.Errorf("workers=1: %w", err)
	}
	w1Rate := float64(apps) / c1.Wall.Seconds()
	m["dispatch.w1_apps_per_s"] = w1Rate
	m["dispatch.scaling_eff"] = float64(apps) / c2.Wall.Seconds() / (float64(workers()) * w1Rate)

	if w.staged {
		pass := runStagedLive
		if w.resume {
			pass = runStagedReplay
		}
		st, err := pass(ctx, w, o.seed, apps, stagedFiles)
		if err != nil {
			return nil, fmt.Errorf("staged pass: %w", err)
		}
		if st.figuresSHA != c2.FiguresSHA || st.storeSHA != c2.StoreSHA {
			*problems = append(*problems, fmt.Sprintf("staged pass is not a faithful mirror: figures %s vs facade %s, store %s vs %s",
				st.figuresSHA, c2.FiguresSHA, st.storeSHA, c2.StoreSHA))
		}
		layerTable(m, st, c1)
		if st.storeSHA != "" {
			if err := storeRead(m, stagedFiles.store(w.resume), st.shas, o.seed); err != nil {
				return nil, fmt.Errorf("result store read: %w", err)
			}
		}
		if o.outDir != "" {
			if err := os.MkdirAll(o.outDir, 0o755); err != nil {
				return nil, err
			}
			if err := st.rec.writeJSONL(filepath.Join(o.outDir, "trace-"+w.name+".jsonl")); err != nil {
				return nil, err
			}
		}
	}

	// Fixed versus marginal cost: a second point at an eighth of the
	// corpus, on the two reference workloads.
	if small := apps / 8; w.reference && small > 0 {
		f, err := sub("small")
		if err != nil {
			return nil, err
		}
		cs, err := runFacade(ctx, w, o.seed, small, workers(), f, false, telDefault)
		if err != nil {
			return nil, fmt.Errorf("1/8 corpus: %w", err)
		}
		marginal := (c2.Wall - cs.Wall).Seconds() * 1000 / float64(apps-small)
		m["campaign.marginal_ms_per_app"] = marginal
		m["campaign.fixed_ms"] = c2.Wall.Seconds()*1000 - marginal*float64(apps)
	}

	// What internal/obs costs: the same campaign with no telemetry and
	// with the bus and event log on top of the default virtual telemetry.
	if w.reference && !w.durable {
		none, err := runFacade(ctx, w, o.seed, apps, workers(), campaignFiles{}, false, telNone)
		if err != nil {
			return nil, fmt.Errorf("telemetry off: %w", err)
		}
		logged, err := runFacade(ctx, w, o.seed, apps, workers(), campaignFiles{}, false, telEventLog)
		if err != nil {
			return nil, fmt.Errorf("event log on: %w", err)
		}
		m["obs.overhead_cpu_frac"] = float64(c2.CPU-none.CPU) / float64(none.CPU)
		m["obs.overhead_allocs_per_app"] = c2.perApp(float64(c2.Allocs) - float64(none.Allocs))
		m["obs.eventlog_allocs_per_app"] = c2.perApp(float64(logged.Allocs) - float64(c2.Allocs))
		if none.FiguresSHA != c2.FiguresSHA || logged.FiguresSHA != c2.FiguresSHA {
			*problems = append(*problems, "telemetry changed the figures")
		}
	}

	rep.elapsed = time.Since(start)
	if rep.result.Failed > 0 {
		*problems = append(*problems, fmt.Sprintf("%d of %d apps failed, were quarantined or never ran", rep.result.Failed, rep.result.Attempted))
	}
	rep.result.Correct = len(*problems) == 0
	rep.result.Metrics = map[string]metricValue{}
	for _, d := range perLayer() {
		rep.result.Metrics[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	return rep, nil
}

// layerTable turns the staged pass's spans into the per-layer rows and the
// three figures that say how far the pass can be trusted.
func layerTable(m map[string]float64, st *stagedResult, w1 *campaign) {
	totals := selfTotals(st.rec.spans)
	var totalNS int64
	var totalAllocs uint64
	for _, t := range totals {
		totalNS += t.SelfNS
		totalAllocs += t.Allocs
	}
	n := float64(st.apps)
	for _, l := range layers {
		t := totals[l]
		m[l+".ns_per_app"] = float64(t.SelfNS) / n
		m[l+".allocs_per_app"] = float64(t.Allocs) / n
		m[l+".kb_per_app"] = float64(t.Bytes) / 1024 / n
		m[l+".share"] = float64(t.SelfNS) / float64(totalNS)
	}
	m["analysis.finish_ms"] = float64(totals["analysis.finish"].SelfNS) / 1e6
	m["collector.polls_per_app"] = float64(st.polls) / n
	// The app spans' self time is the harness's own glue between layers.
	m["trace.other_share"] = float64(totals["app"].SelfNS) / float64(totalNS)
	m["trace.staged_vs_w1"] = st.wall.Seconds() / w1.Wall.Seconds()
	m["trace.alloc_drift"] = float64(totalAllocs)/float64(w1.Allocs) - 1
}

// storeRead is the read-side guard for result-store format changes: open
// the store the staged pass wrote, look up a seeded sample of apps, scan
// it once.
func storeRead(m map[string]float64, path string, shas []string, seed uint64) error {
	t0 := time.Now()
	st, err := resultstore.Open(path)
	if err != nil {
		return err
	}
	m["resultstore.open_ms"] = time.Since(t0).Seconds() * 1000

	rng := rand.New(rand.NewSource(int64(seed)))
	blocks := 0
	t0 = time.Now()
	for i := 0; i < storeLookups; i++ {
		sha := shas[rng.Intn(len(shas))]
		res, err := st.Query(resultstore.Query{AppSHA: sha})
		if err != nil {
			return err
		}
		blocks += res.BlocksScanned
	}
	m["resultstore.point_lookup_us"] = time.Since(t0).Seconds() * 1e6 / storeLookups
	if st.Blocks() > 0 {
		m["resultstore.blocks_read_frac"] = float64(blocks) / float64(storeLookups*st.Blocks())
	}

	rows := 0
	t0 = time.Now()
	if err := st.Scan(func(*resultstore.Record) error { rows++; return nil }); err != nil {
		return err
	}
	m["resultstore.scan_ms"] = time.Since(t0).Seconds() * 1000
	if rows != st.Records() {
		return fmt.Errorf("scan saw %d rows, index says %d", rows, st.Records())
	}
	return nil
}
