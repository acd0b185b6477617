// Package report renders the analysis results as aligned text tables and
// series — one renderer per table/figure of the paper, wired to its inputs
// once, in Sections, which the cmd/libspector and cmd/libreport binaries
// print from. Renderers consume only
// resolved strings and category types from analysis figure values; the
// interned symbol IDs of the analysis core never reach this layer.
package report

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"libspector/internal/analysis"
	"libspector/internal/baseline"
	"libspector/internal/corpus"
)

// mb formats a byte count in MB.
func mb(b int64) string { return fmt.Sprintf("%.2f MB", float64(b)/1e6) }

func mbf(b float64) string { return fmt.Sprintf("%.2f MB", b/1e6) }

// table builds an aligned table from rows.
func table(header []string, rows [][]string) string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	sep := make([]string, len(header))
	for i, h := range header {
		sep[i] = strings.Repeat("-", len(h))
	}
	fmt.Fprintln(tw, strings.Join(sep, "\t"))
	for _, row := range rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	_ = tw.Flush()
	return sb.String()
}

// Totals renders the §IV-A headline numbers.
func Totals(t analysis.Totals) string {
	rows := [][]string{
		{"total transferred", mb(t.TotalBytes())},
		{"  received", mb(t.BytesReceived)},
		{"  sent", mb(t.BytesSent)},
		{"flows (distinct sockets)", fmt.Sprint(t.Flows)},
		{"apps with traffic", fmt.Sprint(t.DistinctApps)},
		{"origin-libraries", fmt.Sprint(t.DistinctOrigins)},
		{"DNS domains", fmt.Sprint(t.DistinctDomains)},
		{"UDP share of traffic", fmt.Sprintf("%.2f%%", 100*t.UDPRatio())},
		{"DNS share of UDP", fmt.Sprintf("%.1f%%", 100*t.DNSShareOfUDP())},
	}
	return "== Dataset totals (§IV-A) ==\n" + table([]string{"metric", "value"}, rows)
}

// TableI renders the domain-category tokenization table.
func TableI(counts map[corpus.DomainCategory]int) string {
	rows := make([][]string, 0, len(counts))
	total := 0
	for _, cat := range corpus.DomainCategories() {
		pattern := corpus.PatternFor(cat)
		if pattern == "" {
			pattern = "(all remaining)"
		}
		if len(pattern) > 60 {
			pattern = pattern[:57] + "..."
		}
		rows = append(rows, []string{string(cat), fmt.Sprint(counts[cat]), pattern})
		total += counts[cat]
	}
	rows = append(rows, []string{"Total", fmt.Sprint(total), ""})
	return "== Table I: tokenization of domain categories ==\n" +
		table([]string{"Generic Category", "Count", "Pattern(s)"}, rows)
}

// Fig2 renders the per-app-category × library-category transfer matrix.
func Fig2(m *analysis.CategoryMatrix) string {
	var sb strings.Builder
	sb.WriteString("== Figure 2: data transfer of origin-library categories per app category ==\n")
	sb.WriteString("Legend (share of total transfer):\n")
	legendRows := make([][]string, 0, len(m.LegendShare))
	for _, cat := range corpus.LibraryCategories() {
		legendRows = append(legendRows, []string{
			string(cat), fmt.Sprintf("%.2f%%", 100*m.LegendShare[cat]),
		})
	}
	sb.WriteString(table([]string{"library category", "share"}, legendRows))
	sb.WriteString("\nPer app category (descending total):\n")
	rows := make([][]string, 0, len(m.Bytes))
	for _, appCat := range m.AppCategoryOrder() {
		var total int64
		top := corpus.LibUnknown
		var topBytes int64
		for lc, b := range m.Bytes[appCat] {
			total += b
			if b > topBytes {
				top, topBytes = lc, b
			}
		}
		rows = append(rows, []string{string(appCat), mb(total), string(top), mb(topBytes)})
	}
	sb.WriteString(table([]string{"app category", "total", "top lib category", "top volume"}, rows))
	return sb.String()
}

// Fig3 renders the top origin-library and 2-level library rankings.
func Fig3(origins, twoLevel []analysis.RankedLibrary) string {
	var sb strings.Builder
	sb.WriteString("== Figure 3: top data-transferring libraries ==\n")
	render := func(title string, libs []analysis.RankedLibrary) {
		sb.WriteString(title + "\n")
		rows := make([][]string, 0, len(libs))
		for _, l := range libs {
			marker := ""
			if l.Builtin {
				marker = " [builtin]"
			}
			rows = append(rows, []string{l.Name + marker, mb(l.Bytes)})
		}
		sb.WriteString(table([]string{"library", "bytes"}, rows))
	}
	render("Origin-libraries:", origins)
	sb.WriteString("\n")
	render("2-level libraries:", twoLevel)
	return sb.String()
}

// Fig4 renders the CDF series as decile tables.
func Fig4(series []analysis.CDFSeries) string {
	var sb strings.Builder
	sb.WriteString("== Figure 4: CDF of transfer flow sizes (bytes at percentile) ==\n")
	header := []string{"series", "p10", "p25", "p50", "p75", "p90", "p99"}
	rows := make([][]string, 0, len(series))
	for _, s := range series {
		row := []string{s.Label}
		for _, p := range []float64{10, 25, 50, 75, 90, 99} {
			row = append(row, fmt.Sprintf("%.0f", percentileSorted(s.Values, p)))
		}
		rows = append(rows, row)
	}
	sb.WriteString(table(header, rows))
	return sb.String()
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p / 100 * float64(len(sorted)-1))
	return sorted[idx]
}

// Fig5 renders the transfer-flow ratios.
func Fig5(series []analysis.RatioSeries) string {
	var sb strings.Builder
	sb.WriteString("== Figure 5: data transfer flow ratios (received/sent) ==\n")
	rows := make([][]string, 0, len(series))
	for _, s := range series {
		rows = append(rows, []string{
			s.Label,
			fmt.Sprint(len(s.Ratios)),
			fmt.Sprintf("%.1f", s.Mean),
			fmt.Sprintf("%.1f", analysis.TopDecileRatioMean(s)),
		})
	}
	sb.WriteString(table([]string{"entities", "count", "mean ratio", "top-10% mean"}, rows))
	return sb.String()
}

// Fig6 renders the AnT/common-library prevalence.
func Fig6(st *analysis.AnTStats) string {
	rows := [][]string{
		{"apps with only AnT traffic", fmt.Sprintf("%.1f%%", 100*st.FracAnTOnly)},
		{"apps with some AnT traffic", fmt.Sprintf("%.1f%%", 100*st.FracSomeAnT)},
		{"apps free of AnT traffic", fmt.Sprintf("%.1f%%", 100*st.FracAnTFree)},
		{"AnT flow ratio (rcvd/sent)", fmt.Sprintf("%.1f", st.AnTFlowRatioMean)},
		{"common-library flow ratio", fmt.Sprintf("%.1f", st.CLFlowRatioMean)},
	}
	return "== Figure 6: AnT and common-library transfer ratios ==\n" +
		table([]string{"metric", "value"}, rows)
}

// Fig7 renders average transfer per library and domain category.
func Fig7(avgs *analysis.CategoryAverages) string {
	var sb strings.Builder
	sb.WriteString("== Figure 7: average data transfer per category ==\n")
	libRows := make([][]string, 0, len(avgs.PerLibrary))
	for _, cat := range corpus.LibraryCategories() {
		if v, ok := avgs.PerLibrary[cat]; ok {
			libRows = append(libRows, []string{string(cat), mbf(v)})
		}
	}
	sort.Slice(libRows, func(i, j int) bool { return libRows[i][1] > libRows[j][1] })
	sb.WriteString(table([]string{"library category", "avg per library"}, libRows))
	sb.WriteString("\n")
	domRows := make([][]string, 0, len(avgs.PerDomain))
	for _, cat := range corpus.DomainCategories() {
		if v, ok := avgs.PerDomain[cat]; ok {
			domRows = append(domRows, []string{string(cat), mbf(v)})
		}
	}
	sort.Slice(domRows, func(i, j int) bool { return domRows[i][1] > domRows[j][1] })
	sb.WriteString(table([]string{"domain category", "avg per domain"}, domRows))
	return sb.String()
}

// Fig8 renders average transfer per app category.
func Fig8(avgs map[corpus.AppCategory]float64) string {
	type kv struct {
		cat corpus.AppCategory
		v   float64
	}
	sorted := make([]kv, 0, len(avgs))
	for cat, v := range avgs {
		sorted = append(sorted, kv{cat, v})
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].v != sorted[j].v {
			return sorted[i].v > sorted[j].v
		}
		return sorted[i].cat < sorted[j].cat
	})
	rows := make([][]string, 0, len(sorted))
	for _, s := range sorted {
		rows = append(rows, []string{string(s.cat), mbf(s.v)})
	}
	return "== Figure 8: average data transfer per app category ==\n" +
		table([]string{"app category", "avg per app"}, rows)
}

// Fig9 renders the library×domain heatmap in MB.
func Fig9(h *analysis.Heatmap) string {
	var sb strings.Builder
	sb.WriteString("== Figure 9: correlation of library categories with DNS categories (MB) ==\n")
	libCats := corpus.LibraryCategories()
	header := []string{"domain \\ library"}
	for _, lc := range libCats {
		header = append(header, abbrevLib(lc))
	}
	rows := make([][]string, 0, 17)
	for _, dc := range corpus.DomainCategories() {
		row := []string{string(dc)}
		for _, lc := range libCats {
			row = append(row, fmt.Sprintf("%.1f", float64(h.Bytes[lc][dc])/1e6))
		}
		rows = append(rows, row)
	}
	sb.WriteString(table(header, rows))
	fmt.Fprintf(&sb, "\n1-to-1 correlation (diagonal share of naturally-mapped categories): %.1f%% — far from strict, as the paper argues (RQ2).\n",
		100*h.DiagonalShare())
	return sb.String()
}

func abbrevLib(c corpus.LibraryCategory) string {
	switch c {
	case corpus.LibAdvertisement:
		return "Adv"
	case corpus.LibAppMarket:
		return "Mkt"
	case corpus.LibDevelopmentAid:
		return "DevAid"
	case corpus.LibDevelopmentFramework:
		return "DevFw"
	case corpus.LibDigitalIdentity:
		return "DigId"
	case corpus.LibGUIComponent:
		return "GUI"
	case corpus.LibGameEngine:
		return "Game"
	case corpus.LibMapLBS:
		return "Map"
	case corpus.LibMobileAnalytics:
		return "Ana"
	case corpus.LibPayment:
		return "Pay"
	case corpus.LibSocialNetwork:
		return "Soc"
	case corpus.LibUnknown:
		return "Unk"
	case corpus.LibUtility:
		return "Util"
	default:
		return string(c)
	}
}

// Fig10 renders coverage statistics.
func Fig10(st *analysis.CoverageStats) string {
	rows := [][]string{
		{"apps measured", fmt.Sprint(len(st.Percents))},
		{"mean coverage", fmt.Sprintf("%.2f%%", st.Mean)},
		{"apps above mean", fmt.Sprintf("%.1f%%", 100*st.FracAboveMean)},
		{"mean methods per apk", fmt.Sprintf("%.0f", st.MeanMethods)},
		{"apps above mean methods", fmt.Sprintf("%.1f%%", 100*st.FracAboveMeanMethods)},
	}
	return "== Figure 10: method coverage (§IV-C) ==\n" + table([]string{"metric", "value"}, rows)
}

// Costs renders the §IV-D monetary estimates.
func Costs(costs []analysis.CategoryCost) string {
	rows := make([][]string, 0, len(costs))
	for _, c := range costs {
		rows = append(rows, []string{
			string(c.Category),
			mbf(c.BytesPerRun),
			fmt.Sprintf("$%.2f", c.DollarsPerHour),
		})
	}
	return "== §IV-D: estimated monetary cost to users (Google Fi $10/GB) ==\n" +
		table([]string{"library category", "avg volume per 8-min run", "cost per hour"}, rows)
}

// Energy renders the §IV-D energy estimates.
func Energy(m analysis.EnergyModel, adBytes float64) string {
	joules := m.EnergyJoules(adBytes)
	paperJoules := adBytes * analysis.PaperJoulesPerByte
	rows := [][]string{
		{"active ad power draw", fmt.Sprintf("%.3f W", m.ActivePowerW)},
		{"effective ad transfer rate", fmt.Sprintf("%.0f B/s", m.BytesPerSecond)},
		{"energy per byte", fmt.Sprintf("%.2e J/B", m.JoulesPerByte)},
		{"measured avg ad volume", mbf(adBytes)},
		{"energy for that volume", fmt.Sprintf("%.0f J (%.2f Wh)", joules, joules/3600)},
		{"battery share", fmt.Sprintf("%.1f%%", 100*m.BatteryShare(joules))},
		{"paper-constant energy", fmt.Sprintf("%.0f J (%.1f%% battery)", paperJoules, 100*m.BatteryShare(paperJoules))},
	}
	return "== §IV-D: advertising energy consumption ==\n" + table([]string{"quantity", "value"}, rows)
}

// Baselines renders the E4 comparison of network-only classifiers against
// context-aware attribution.
func Baselines(ua, host, content baseline.Comparison) string {
	row := func(name string, c baseline.Comparison) []string {
		return []string{
			name,
			mb(c.ContextAnTBytes),
			mb(c.BaselineAnTBytes),
			fmt.Sprintf("%.1f%%", 100*c.Recall()),
			fmt.Sprintf("%.1f%%", 100*c.Precision()),
			fmt.Sprintf("%.1f%%", 100*c.CDNShare()),
		}
	}
	return "== Network-only baselines vs context-aware attribution ==\n" +
		table(
			[]string{"baseline", "context AnT", "baseline AnT", "recall", "precision", "known-lib CDN share"},
			[][]string{
				row("User-Agent (Xue/Maier)", ua),
				row("Hostname (Tongaonkar)", host),
				row("Content-Type (Vallina)", content),
			},
		)
}

// PaperComparison renders the paper-vs-measured shape table.
func PaperComparison(rows []analysis.TargetComparison) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		verdict := "within 2x"
		switch {
		case r.Band <= 0.5:
			verdict = "close"
		case r.Band > 1:
			verdict = fmt.Sprintf("off by %.1fx", pow2(r.Band))
		}
		out = append(out, []string{
			r.Name,
			fmt.Sprintf("%.3g", r.Paper),
			fmt.Sprintf("%.3g", r.Measured),
			verdict,
		})
	}
	return "== Paper vs. measured (shape targets) ==\n" +
		table([]string{"target", "paper", "measured", "verdict"}, out)
}

// pow2 computes 2^x for small positive x.
func pow2(x float64) float64 {
	r := 1.0
	for x >= 1 {
		r *= 2
		x--
	}
	return r * (1 + x) // linear residual, mirrors the band computation
}

// Inputs is everything the sections render from.
type Inputs struct {
	Aggregates   *analysis.Aggregates
	DomainCounts map[corpus.DomainCategory]int // Table I's count column
	TopN         int                           // depth of the Figure 3 rankings
}

// Section is one table or figure of the evaluation. Its ID is what
// `libreport -figure` takes and names its block in EXPERIMENTS.md.
type Section struct {
	ID     string
	Render func(Inputs) string
}

// Sections lists every section in the order a full report prints them.
var Sections = []Section{
	{ID: "totals", Render: func(in Inputs) string { return Totals(in.Aggregates.ComputeTotals()) }},
	{ID: "T1", Render: func(in Inputs) string { return TableI(in.DomainCounts) }},
	{ID: "F2", Render: func(in Inputs) string { return Fig2(in.Aggregates.Fig2CategoryTransfer()) }},
	{ID: "F3", Render: func(in Inputs) string {
		return Fig3(in.Aggregates.Fig3TopOrigins(in.TopN), in.Aggregates.Fig3TopTwoLevel(in.TopN))
	}},
	{ID: "F4", Render: func(in Inputs) string { return Fig4(in.Aggregates.Fig4CDF()) }},
	{ID: "F5", Render: func(in Inputs) string { return Fig5(in.Aggregates.Fig5FlowRatios()) }},
	{ID: "F6", Render: func(in Inputs) string { return Fig6(in.Aggregates.Fig6AnTShares()) }},
	{ID: "F7", Render: func(in Inputs) string { return Fig7(in.Aggregates.Fig7Averages()) }},
	{ID: "F8", Render: func(in Inputs) string { return Fig8(in.Aggregates.Fig8AppCategoryAverages()) }},
	{ID: "F9", Render: func(in Inputs) string { return Fig9(in.Aggregates.Fig9Heatmap()) }},
	{ID: "F10", Render: func(in Inputs) string { return Fig10(in.Aggregates.Fig10Coverage()) }},
	{ID: "E1", Render: func(in Inputs) string {
		return Costs(analysis.CostPerCategory(in.Aggregates.Fig7Averages(), analysis.NewCostModel(), corpus.LibAdvertisement,
			corpus.LibMobileAnalytics, corpus.LibSocialNetwork, corpus.LibDigitalIdentity, corpus.LibGameEngine))
	}},
	{ID: "E2", Render: func(in Inputs) string {
		return Energy(analysis.NewEnergyModel(), in.Aggregates.Fig7Averages().PerLibrary[corpus.LibAdvertisement])
	}},
	{ID: "E4", Render: func(in Inputs) string { return Baselines(in.Aggregates.Baselines()) }},
	{ID: "paper", Render: func(in Inputs) string { return PaperComparison(in.Aggregates.CompareWithPaper()) }},
}

// FindSection returns the section whose ID is id, ignoring case.
func FindSection(id string) (Section, bool) {
	for _, s := range Sections {
		if strings.EqualFold(s.ID, id) {
			return s, true
		}
	}
	return Section{}, false
}
