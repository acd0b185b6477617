package analysis

import (
	"libspector/internal/baseline"
	"libspector/internal/corpus"
)

// Aggregates is the frozen, category-resolved output of the aggregation
// core, reached through Accumulator.Finish or Partial.Finish. The fold is
// order-independent, so any fold of the same runs — one process or merged
// shards — produces byte-identical output. All strings here are fully
// resolved: symbol IDs never leave the core.
type Aggregates struct {
	// Runs counts the folded runs.
	Runs int
	// UnattributedFlows counts flows without a supervisor report.
	UnattributedFlows int

	totals       Totals
	fig2         *CategoryMatrix
	fig3Origins  []RankedLibrary
	fig3TwoLevel []RankedLibrary
	fig4         []CDFSeries
	fig5         []RatioSeries
	fig6         *AnTStats
	fig7         *CategoryAverages
	fig8         map[corpus.AppCategory]float64
	fig9         *Heatmap
	fig10        *CoverageStats
	half         HalfTrafficCounts
	e4           [3]baseline.Comparison // User-Agent, hostname, content type
}

// ComputeTotals returns the §IV-A headline totals.
func (ag *Aggregates) ComputeTotals() Totals { return ag.totals }

// Fig2CategoryTransfer returns the Figure 2 matrix.
func (ag *Aggregates) Fig2CategoryTransfer() *CategoryMatrix { return ag.fig2 }

// Fig3TopOrigins ranks origin-libraries by transfer volume.
func (ag *Aggregates) Fig3TopOrigins(n int) []RankedLibrary { return truncateRanked(ag.fig3Origins, n) }

// Fig3TopTwoLevel ranks 2-level libraries by transfer volume.
func (ag *Aggregates) Fig3TopTwoLevel(n int) []RankedLibrary {
	return truncateRanked(ag.fig3TwoLevel, n)
}

func truncateRanked(full []RankedLibrary, n int) []RankedLibrary {
	if n > 0 && len(full) > n {
		return full[:n:n]
	}
	return full
}

// TopShare computes the transfer share of the top-n ranking entries.
func (ag *Aggregates) TopShare(n int, twoLevel bool) float64 {
	ranked := ag.fig3Origins
	if twoLevel {
		ranked = ag.fig3TwoLevel
	}
	var total, top int64
	for i, r := range ranked {
		total += r.Bytes
		if i < n {
			top += r.Bytes
		}
	}
	if total == 0 {
		return 0
	}
	return float64(top) / float64(total)
}

// Fig4CDF returns the six Figure 4 series.
func (ag *Aggregates) Fig4CDF() []CDFSeries { return ag.fig4 }

// Fig5FlowRatios returns the three Figure 5 curves.
func (ag *Aggregates) Fig5FlowRatios() []RatioSeries { return ag.fig5 }

// Fig6AnTShares returns the Figure 6 prevalence statistics.
func (ag *Aggregates) Fig6AnTShares() *AnTStats { return ag.fig6 }

// Fig7Averages returns the Figure 7 per-category averages.
func (ag *Aggregates) Fig7Averages() *CategoryAverages { return ag.fig7 }

// Fig8AppCategoryAverages returns bytes per app for each category.
func (ag *Aggregates) Fig8AppCategoryAverages() map[corpus.AppCategory]float64 { return ag.fig8 }

// Fig9Heatmap returns the library×domain category matrix.
func (ag *Aggregates) Fig9Heatmap() *Heatmap { return ag.fig9 }

// Fig10Coverage returns the per-app coverage statistics.
func (ag *Aggregates) Fig10Coverage() *CoverageStats { return ag.fig10 }

// ComputeHalfTraffic returns the §IV-A concentration counts.
func (ag *Aggregates) ComputeHalfTraffic() HalfTrafficCounts { return ag.half }

// Baselines returns the §IV-E comparisons of the User-Agent, hostname and
// content-type classifiers against context-aware attribution.
func (ag *Aggregates) Baselines() (ua, host, content baseline.Comparison) {
	return ag.e4[0], ag.e4[1], ag.e4[2]
}

// CompareWithPaper evaluates the headline shape targets against the
// paper's published values.
func (ag *Aggregates) CompareWithPaper() []TargetComparison {
	return compareRows(ag.totals, ag.fig2, ag.fig5, ag.fig6, ag.fig7, ag.fig9, ag.fig10, ag.TopShare(25, true))
}

// Summarize renders the full evaluation summary.
func (ag *Aggregates) Summarize(topN int) *Summary {
	if topN <= 0 {
		topN = 25
	}
	return &Summary{
		Totals:               ag.totals,
		Fig2LegendShare:      ag.fig2.LegendShare,
		Fig2AppCategoryBytes: ag.fig2.Bytes,
		Fig3TopOrigins:       ag.Fig3TopOrigins(topN),
		Fig3TopTwoLevel:      ag.Fig3TopTwoLevel(topN),
		Fig5RatioMeans: map[string]float64{
			"apps": ag.fig5[0].Mean,
			"libs": ag.fig5[1].Mean,
			"dns":  ag.fig5[2].Mean,
		},
		Fig6AnTOnlyFrac:    ag.fig6.FracAnTOnly,
		Fig6SomeAnTFrac:    ag.fig6.FracSomeAnT,
		Fig6AnTFreeFrac:    ag.fig6.FracAnTFree,
		Fig6AnTFlowRatio:   ag.fig6.AnTFlowRatioMean,
		Fig6CLFlowRatio:    ag.fig6.CLFlowRatioMean,
		Fig7PerLibrary:     ag.fig7.PerLibrary,
		Fig7PerDomain:      ag.fig7.PerDomain,
		Fig8PerAppCategory: ag.fig8,
		Fig9Heatmap:        ag.fig9.Bytes,
		Fig10CoverageMean:  ag.fig10.Mean,
		Fig10MeanMethods:   ag.fig10.MeanMethods,
		Fig10AppsMeasured:  len(ag.fig10.Percents),
		Fig10FracAboveMean: ag.fig10.FracAboveMean,
		HalfTraffic:        ag.half,
	}
}
