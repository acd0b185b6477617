package analysis

import (
	"libspector/internal/corpus"
)

// Paper-published values (DSN 2020), used to render paper-vs-measured
// comparisons. Shares are fractions, ratios are received/sent means.
const (
	PaperAdsShare       = 0.2828 // Fig. 2 legend
	PaperDevAidShare    = 0.2634
	PaperUnknownShare   = 0.253
	PaperGameShare      = 0.102
	PaperAppRatioMean   = 81.0 // Fig. 5
	PaperLibRatioMean   = 87.0
	PaperDNSRatioMean   = 104.0
	PaperAnTOnlyFrac    = 0.35 // Fig. 6 / §IV-A
	PaperSomeAnTFrac    = 0.89
	PaperAnTFlowRatio   = 54.8
	PaperCLFlowRatio    = 24.4
	PaperCDNOverAds     = 46.27 / 4.32 // Fig. 7 per-domain MB
	PaperAdsToCDNShare  = 2098.8 / 8697.7
	PaperCoverageMean   = 9.5 // Fig. 10, percent
	PaperFracAboveMean  = 0.405
	PaperTop25TwoLevel  = 0.725 // §IV-A
	PaperUDPTrafficFrac = 0.0052
	PaperDNSShareOfUDP  = 0.97
)

// TargetComparison is one paper-vs-measured row.
type TargetComparison struct {
	Name     string  `json:"name"`
	Paper    float64 `json:"paper"`
	Measured float64 `json:"measured"`
	// Band is the |log2(measured/paper)| distance; < 1 means within a
	// factor of two.
	Band float64 `json:"band"`
}

// ratioBand computes |log2(measured/paper)|, guarding zeros.
func ratioBand(measured, paper float64) float64 {
	if paper <= 0 || measured <= 0 {
		return 99
	}
	r := measured / paper
	if r < 1 {
		r = 1 / r
	}
	// log2(r) without math import churn: use the identity via math. Keep
	// it simple and precise.
	return log2(r)
}

func log2(x float64) float64 {
	// x >= 1 guaranteed by caller.
	n := 0.0
	for x >= 2 {
		x /= 2
		n++
	}
	// Linear interpolation on the residual [1,2) is accurate enough for a
	// reporting band.
	return n + (x - 1)
}

// compareRows builds the comparison table from the already-computed
// figures.
func compareRows(totals Totals, m *CategoryMatrix, ratios []RatioSeries, ant *AnTStats,
	avgs *CategoryAverages, heat *Heatmap, cov *CoverageStats, top25TwoLevel float64) []TargetComparison {
	cdnOverAds := 0.0
	if ads := avgs.PerDomain[corpus.DomAdvertisements]; ads > 0 {
		cdnOverAds = avgs.PerDomain[corpus.DomCDN] / ads
	}
	rows := []TargetComparison{
		{Name: "Fig2 advertisement share", Paper: PaperAdsShare, Measured: m.LegendShare[corpus.LibAdvertisement]},
		{Name: "Fig2 development-aid share", Paper: PaperDevAidShare, Measured: m.LegendShare[corpus.LibDevelopmentAid]},
		{Name: "Fig2 unknown share", Paper: PaperUnknownShare, Measured: m.LegendShare[corpus.LibUnknown]},
		{Name: "Fig2 game-engine share", Paper: PaperGameShare, Measured: m.LegendShare[corpus.LibGameEngine]},
		{Name: "Fig5 app ratio mean", Paper: PaperAppRatioMean, Measured: ratios[0].Mean},
		{Name: "Fig5 library ratio mean", Paper: PaperLibRatioMean, Measured: ratios[1].Mean},
		{Name: "Fig5 domain ratio mean", Paper: PaperDNSRatioMean, Measured: ratios[2].Mean},
		{Name: "Fig6 AnT-only apps", Paper: PaperAnTOnlyFrac, Measured: ant.FracAnTOnly},
		{Name: "Fig6 some-AnT apps", Paper: PaperSomeAnTFrac, Measured: ant.FracSomeAnT},
		{Name: "Fig6 AnT flow ratio", Paper: PaperAnTFlowRatio, Measured: ant.AnTFlowRatioMean},
		{Name: "Fig6 common-library flow ratio", Paper: PaperCLFlowRatio, Measured: ant.CLFlowRatioMean},
		{Name: "Fig7 CDN/ads per-domain", Paper: PaperCDNOverAds, Measured: cdnOverAds},
		{Name: "Fig9 ads→CDN share", Paper: PaperAdsToCDNShare, Measured: heat.ShareToDomain(corpus.LibAdvertisement, corpus.DomCDN)},
		{Name: "Fig10 coverage mean (%)", Paper: PaperCoverageMean, Measured: cov.Mean},
		{Name: "top-25 2-level share", Paper: PaperTop25TwoLevel, Measured: top25TwoLevel},
		{Name: "UDP traffic fraction", Paper: PaperUDPTrafficFrac, Measured: totals.UDPRatio()},
		{Name: "DNS share of UDP", Paper: PaperDNSShareOfUDP, Measured: totals.DNSShareOfUDP()},
	}
	for i := range rows {
		rows[i].Band = ratioBand(rows[i].Measured, rows[i].Paper)
	}
	return rows
}
