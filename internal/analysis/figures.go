package analysis

import (
	"sort"

	"libspector/internal/corpus"
	"libspector/internal/sim"
)

// This file holds the figure/table result types and their pure rendering
// helpers. The aggregation math that fills them lives in one place — the
// columnar core (core.go) — reached through the Accumulator.

// ---------------------------------------------------------------------------
// Figure 2: data transfer of origin-library categories per app category.

// CategoryMatrix is the Figure 2 aggregation.
type CategoryMatrix struct {
	// Bytes[appCategory][libCategory] is the aggregate transfer volume.
	Bytes map[corpus.AppCategory]map[corpus.LibraryCategory]int64
	// LegendShare[libCategory] is each library category's share of total
	// transfer (the Figure 2 legend percentages).
	LegendShare map[corpus.LibraryCategory]float64
	// Total is the overall transferred volume.
	Total int64
}

// AppCategoryOrder returns app categories sorted by descending aggregate
// transfer (the Figure 2 x-axis ordering).
func (m *CategoryMatrix) AppCategoryOrder() []corpus.AppCategory {
	type kv struct {
		cat   corpus.AppCategory
		bytes int64
	}
	rows := make([]kv, 0, len(m.Bytes))
	for cat, libs := range m.Bytes {
		var sum int64
		for _, b := range libs {
			sum += b
		}
		rows = append(rows, kv{cat, sum})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].bytes != rows[j].bytes {
			return rows[i].bytes > rows[j].bytes
		}
		return rows[i].cat < rows[j].cat
	})
	out := make([]corpus.AppCategory, len(rows))
	for i, r := range rows {
		out[i] = r.cat
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 3: top origin-libraries and 2-level libraries.

// RankedLibrary is one bar of the Figure 3 charts.
type RankedLibrary struct {
	Name  string
	Bytes int64
	// Builtin marks pseudo-libraries ("*-Advertisement") and platform
	// libraries, rendered red in the paper's figure.
	Builtin bool
}

// ---------------------------------------------------------------------------
// Figure 4: CDFs of sent/received flow sizes for apps, origin-libraries,
// and DNS domains.

// CDFSeries is one curve: sorted per-entity byte totals.
type CDFSeries struct {
	Label  string
	Values []float64 // sorted ascending
}

// At returns the CDF value (fraction of entities with total <= x).
func (s CDFSeries) At(x float64) float64 {
	if len(s.Values) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(s.Values, x)
	// Advance past equal values to get P(value <= x).
	for i < len(s.Values) && s.Values[i] <= x {
		i++
	}
	return float64(i) / float64(len(s.Values))
}

// ---------------------------------------------------------------------------
// Figure 5: transfer-flow ratios.

// RatioSeries is the per-entity received/sent ratio distribution of one
// entity kind, sorted descending as in Figure 5, plus its mean. For apps
// and origin-libraries the ratio is received/sent (they receive more than
// they send); for DNS domains it is transmitted/received from the server's
// perspective — the same quantity, which the paper reports as "domains
// send 104 times more data than received".
type RatioSeries struct {
	Label  string
	Ratios []float64
	Mean   float64
}

// TopDecileRatioMean returns the mean ratio of the top 10% of a ratio
// series ("the top 10% of origin-libraries received over 260 times the
// data they sent").
func TopDecileRatioMean(s RatioSeries) float64 {
	if len(s.Ratios) == 0 {
		return 0
	}
	n := len(s.Ratios) / 10
	if n < 1 {
		n = 1
	}
	return sim.Mean(s.Ratios[:n])
}

// ---------------------------------------------------------------------------
// Figure 6: AnT and common-library transfer-ratio prevalence.

// AnTStats is the Figure 6 aggregation plus the §IV-A prevalence numbers.
// Only app-attributed (non-builtin) flows participate, since the AnT/CL
// lists describe app libraries.
type AnTStats struct {
	// AnTShares / CLShares are the per-app ratios of AnT (respectively
	// common-library) bytes over total attributed app bytes, sorted
	// descending.
	AnTShares []float64
	CLShares  []float64
	// FracAnTOnly is the fraction of traffic-producing apps whose traffic
	// is entirely AnT (paper: 35%).
	FracAnTOnly float64
	// FracSomeAnT is the fraction with any AnT traffic (paper: 89%).
	FracSomeAnT float64
	// FracAnTFree is the fraction with zero AnT traffic (paper: ~10%).
	FracAnTFree float64
	// AnTFlowRatioMean / CLFlowRatioMean are the received/sent ratios of
	// AnT and common libraries (paper: 54.8 vs 24.4).
	AnTFlowRatioMean float64
	CLFlowRatioMean  float64
}

// ---------------------------------------------------------------------------
// Figure 7: average transfer per origin-library category and per domain
// category.

// CategoryAverages holds per-category averages.
type CategoryAverages struct {
	// PerLibrary[cat] is bytes per distinct origin-library of the category.
	PerLibrary map[corpus.LibraryCategory]float64
	// PerDomain[cat] is bytes per distinct domain of the category.
	PerDomain map[corpus.DomainCategory]float64
}

// ---------------------------------------------------------------------------
// Figure 9: library-category × domain-category heatmap.

// Heatmap is the Figure 9 matrix in bytes.
type Heatmap struct {
	// Bytes[libCategory][domainCategory].
	Bytes map[corpus.LibraryCategory]map[corpus.DomainCategory]int64
}

// ShareToDomain returns the fraction of a library category's traffic bound
// for a domain category ("advertisement libraries send ~29% of their
// traffic to CDN servers").
func (h *Heatmap) ShareToDomain(lib corpus.LibraryCategory, dom corpus.DomainCategory) float64 {
	row := h.Bytes[lib]
	var total int64
	for _, b := range row {
		total += b
	}
	if total == 0 {
		return 0
	}
	return float64(row[dom]) / float64(total)
}

// naturalDomain maps each library category to the domain category a naive
// 1-to-1 model would predict its traffic lands on.
var naturalDomain = map[corpus.LibraryCategory]corpus.DomainCategory{
	corpus.LibAdvertisement:   corpus.DomAdvertisements,
	corpus.LibMobileAnalytics: corpus.DomAnalytics,
	corpus.LibGameEngine:      corpus.DomGames,
	corpus.LibSocialNetwork:   corpus.DomSocialNetworks,
	corpus.LibPayment:         corpus.DomBusinessFinance,
	corpus.LibDigitalIdentity: corpus.DomInternetServices,
}

// DiagonalShare quantifies the paper's RQ2 finding: the fraction of
// traffic from library categories with a "natural" destination category
// that actually lands there. A value near 1 would mean a strict 1-to-1
// correlation; the paper (and this reproduction) find far less.
func (h *Heatmap) DiagonalShare() float64 {
	var total, diagonal int64
	for lib, dom := range naturalDomain {
		for d, b := range h.Bytes[lib] {
			total += b
			if d == dom {
				diagonal += b
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(diagonal) / float64(total)
}

// ---------------------------------------------------------------------------
// Figure 10: method coverage.

// CoverageStats summarizes the per-app coverage distribution (§IV-C).
type CoverageStats struct {
	// Percents is the per-app coverage percentage, app order.
	Percents []float64
	// Mean is the average coverage (paper: 9.5%).
	Mean float64
	// FracAboveMean is the fraction of apps above the mean (paper: 40.5%).
	FracAboveMean float64
	// MeanMethods is the average dex method count (paper: 49,138).
	MeanMethods float64
	// FracAboveMeanMethods is the fraction of apps with more methods than
	// average (paper: 27.3%).
	FracAboveMeanMethods float64
}

// ---------------------------------------------------------------------------
// Half-traffic concentration (§IV-A: "top 5,057 apps, 2,299 origin-
// libraries and 4,010 DNS domains are associated with half of the total
// data transfer").

// HalfTrafficCounts reports how many top entities of each kind account for
// 50% of the transfer volume.
type HalfTrafficCounts struct {
	Apps    int
	Origins int
	Domains int
}
