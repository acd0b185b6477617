package main

import "libspector/internal/sim"

// metricDef declares one metric the harness emits. BENCHMARK.json lists
// the same names, units, directions and bounds; manifest_test.go holds the
// two in agreement.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which the metric may
	// worsen before -compare (and the driver) call it a regression.
	// Per-layer metrics have none.
	Bound float64
	// Exact marks a deterministic count: any worsening at all is a
	// regression, whatever Bound says.
	Exact bool
	// fold turns the samples a run took of the metric — one per campaign,
	// or per construction for setup_s — into the run's value. Nil means the
	// median: times are noisy on a shared machine, so they report the median
	// campaign.
	fold func([]float64) float64
}

func (m metricDef) of(samples []float64) float64 {
	if m.fold != nil {
		return m.fold(samples)
	}
	return median(samples)
}

// fastestDecile folds setup_s. A construction takes under a millisecond,
// and its timings have a clean mode and a disturbed one some 50% slower;
// how many samples fall into the second depends on what else the host is
// doing, so the median flips between the modes from run to run while the
// tenth percentile stays in the first.
func fastestDecile(samples []float64) float64 { return sim.Percentile(samples, 10) }

// firstCampaign folds a deterministic per-corpus quantity: campaign 0 runs
// the corpus of the run's own seed, whatever number of campaigns follows.
func firstCampaign(samples []float64) float64 { return samples[0] }

// endToEnd are the metrics a user of a campaign sees, reported per
// workload by an untraced run. The bounds are about three times the
// seed-to-seed quartile spread measured at the commit that added the
// benchmark (see README.md), not the same-seed repeatability: the driver
// varies the seed, and another seed is another corpus.
var endToEnd = []metricDef{
	{Name: "apps_per_s", Unit: "apps/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_app", Unit: "ms", Better: "lower", Bound: 0.25},
	// Allocation counts repeat exactly for a given corpus; their only
	// spread is which apps the seed drew, and the mean over every app of the
	// run (campaigns are equal-sized) averages that best.
	{Name: "allocs_per_app", Unit: "objects", Better: "lower", Bound: 0.20, fold: sim.Mean},
	{Name: "alloc_kb_per_app", Unit: "KiB", Better: "lower", Bound: 0.20, fold: sim.Mean},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, fold: fastestDecile},
}

// ledgerOnly are end-to-end metrics the driver's contract cannot carry as
// end_to_end: disk_kb_per_app and failed_frac are legitimately zero on
// some workloads, and peak_rss_mb is a maximum over log-normal app sizes,
// so its seed-to-seed spread (36% on heavy_code) exceeds any bound the
// contract allows. They are measured on every untraced run, written to
// results.json and judged by -compare, where both sides ran the same
// seed; BENCHMARK.json carries the first two as per-layer rows
// (disk.kb_per_app, campaign.failed_frac).
var ledgerOnly = []metricDef{
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "disk_kb_per_app", Unit: "KiB", Better: "lower", Bound: 0.005, fold: firstCampaign},
	{Name: "failed_frac", Unit: "ratio", Better: "lower", Exact: true, fold: sim.Mean},
}

// judged is every metric of an untraced run, in ledger order.
func judged() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), ledgerOnly...)
}

// layers are the repo's modules as the staged pass calls them, in
// pipeline order. Each yields ns_per_app, allocs_per_app, kb_per_app and
// share (self time over the staged total).
var layers = []string{
	"synth.generate",
	"apkstore.roundtrip",
	"libradar.observe",
	"emulator.run",
	"collector.drain",
	"dex.disassemble",
	"attribution.analyze",
	"analysis.fold",
	"journal.append",
	"artifacts.save",
	"artifacts.load",
	"journal.replay",
	"resultstore.write",
}

// layerFacets are the per-layer columns with their units.
var layerFacets = []struct{ suffix, unit, better string }{
	{"ns_per_app", "ns", "lower"},
	{"allocs_per_app", "objects", "lower"},
	{"kb_per_app", "KiB", "lower"},
	{"share", "ratio", "lower"},
}

// diagnostics are the whole-run per-layer metrics of a traced run.
var diagnostics = []metricDef{
	{Name: "analysis.finish_ms", Unit: "ms", Better: "lower"},
	{Name: "collector.polls_per_app", Unit: "count", Better: "lower"},
	{Name: "collector.dropped", Unit: "count", Better: "lower"},
	{Name: "collector.malformed", Unit: "count", Better: "lower"},
	{Name: "resultstore.open_ms", Unit: "ms", Better: "lower"},
	{Name: "resultstore.point_lookup_us", Unit: "us", Better: "lower"},
	{Name: "resultstore.scan_ms", Unit: "ms", Better: "lower"},
	{Name: "resultstore.blocks_read_frac", Unit: "ratio", Better: "lower"},
	{Name: "campaign.fixed_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.marginal_ms_per_app", Unit: "ms", Better: "lower"},
	{Name: "campaign.failed_frac", Unit: "ratio", Better: "lower"},
	{Name: "campaign.prep_s", Unit: "s", Better: "lower"},
	{Name: "disk.kb_per_app", Unit: "KiB", Better: "lower"},
	{Name: "dispatch.w1_apps_per_s", Unit: "apps/s", Better: "higher"},
	{Name: "dispatch.scaling_eff", Unit: "ratio", Better: "higher"},
	{Name: "dispatch.attempts_per_app", Unit: "ratio", Better: "lower"},
	{Name: "dispatch.retried_frac", Unit: "ratio", Better: "lower"},
	{Name: "dispatch.backoff_virtual_s", Unit: "s", Better: "lower"},
	{Name: "trace.staged_vs_w1", Unit: "ratio", Better: "lower"},
	{Name: "trace.alloc_drift", Unit: "ratio", Better: "lower"},
	{Name: "trace.other_share", Unit: "ratio", Better: "lower"},
	{Name: "obs.overhead_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "obs.overhead_allocs_per_app", Unit: "objects", Better: "lower"},
	{Name: "obs.eventlog_allocs_per_app", Unit: "objects", Better: "lower"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_cycles_per_app", Unit: "ratio", Better: "lower"},
}

// perLayer is every metric a traced run emits: the layer table followed by
// the diagnostics. Every workload emits every name; a layer a workload
// never calls reads zero.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range layers {
		for _, f := range layerFacets {
			out = append(out, metricDef{Name: l + "." + f.suffix, Unit: f.unit, Better: f.better})
		}
	}
	return append(out, diagnostics...)
}
