package analysis

import (
	"fmt"
	"sort"

	"libspector/internal/attribution"
	"libspector/internal/baseline"
	"libspector/internal/corpus"
	"libspector/internal/libradar"
	"libspector/internal/sim"
	"libspector/internal/symtab"
)

// core is the single columnar implementation of the figure/table
// aggregation math (F2–F10, E4, totals, half-traffic), wrapped by the
// Accumulator. Every aggregate is a symbol-indexed slice or a sparse cell
// map — the fold does no string hashing beyond the one intern per flow
// field.
//
// Byte-identical output across fold orders holds because every folded
// quantity is an int64 sum (order-independent) and every float statistic is
// computed from values sorted in finish.
type core struct {
	syms     *Symbols
	finished bool

	// Totals.
	runs          int
	flows         int
	unattributed  int
	bytesSent     int64
	bytesReceived int64
	udpWire       int64
	dnsWire       int64
	tcpWire       int64

	// Per-entity sent/received pairs shared by Totals (distinct counts),
	// Fig4, Fig5, and the half-traffic concentration counts. The domain
	// pair is stored from the server's perspective, as in Fig4.
	perApp    entityStats
	perOrigin entityStats
	perDomain entityStats

	// lib is the library fold of Figures 2, 3 (builtin markers), 7 (library
	// panel), 8 and 9: each attributed flow's bytes under its (app
	// category, domain category, origin, builtin) cell. The LibRadar origin
	// category is deferred to finish, so the cells keep the origin symbol.
	// A cell exists iff a flow folded into it, so the fold grows with the
	// distinct cells observed, not with categories × origins.
	lib map[libCell]int64

	// e4 is the §IV-E baseline fold: each attributed non-builtin flow's
	// bytes under its origin and the network-only classifiers' verdicts.
	// Context-aware AnT membership and the LibRadar category are facts of
	// the origin, resolved in finish.
	e4 map[e4Cell]int64
	// ua classifies User-Agents; lastUA/lastUAAd memoize its latest call
	// (a run's flows mostly share one User-Agent).
	ua       *baseline.UAClassifier
	lastUA   string
	lastUAAd bool

	// Fig3 2-level rankings; origin bytes come from perOrigin.
	twoBytes   countVec // [2-level sym]
	twoBuiltin []bool

	// Fig6 per-app AnT/common-library accumulation (non-builtin flows).
	fig6 []antAcc // [app sym]

	// Fig7 domain panel (members are derived from perDomain in finish).
	domBytes countVec // [domCat sym]

	// Fig8 app counts: app sym → app-category syms folded for it.
	fig8Cats [][]symtab.Sym

	// Fig10: per-run coverage, re-sorted into app-index order in finish so
	// completion order does not leak into the figure.
	coverage []coverageEntry
}

func newCore(domains DomainCategorizer) (*core, error) {
	if domains == nil {
		return nil, fmt.Errorf("analysis: nil domain categorizer")
	}
	return &core{
		syms: newSymbols(domains),
		lib:  make(map[libCell]int64),
		e4:   make(map[e4Cell]int64),
		ua:   baseline.NewUAClassifier(),
	}, nil
}

// e4Cell keys one cell of the baseline fold.
type e4Cell struct {
	origin  symtab.Sym
	verdict baseline.Verdict
}

// less orders cells by origin, then verdict: the order Encode writes them
// in.
func (k e4Cell) less(o e4Cell) bool {
	if k.origin != o.origin {
		return k.origin < o.origin
	}
	return k.verdict < o.verdict
}

// libCell keys one cell of the library fold.
type libCell struct {
	appCat, domCat, origin symtab.Sym
	builtin                bool
}

// less orders cells by app category, domain category, origin, then
// builtin (false first): the order Encode writes them in.
func (k libCell) less(o libCell) bool {
	if k.appCat != o.appCat {
		return k.appCat < o.appCat
	}
	if k.domCat != o.domCat {
		return k.domCat < o.domCat
	}
	if k.origin != o.origin {
		return k.origin < o.origin
	}
	return !k.builtin && o.builtin
}

// pair is one entity's directional byte totals.
type pair struct{ sent, rcvd int64 }

// entityStats is a symbol-indexed column of per-entity pairs with presence
// bits. Presence is tracked explicitly because a folded flow may carry zero
// bytes and the tables pre-intern "", so neither nonzero sums nor table
// length recover the observed-entity set.
type entityStats struct {
	pairs    []pair
	seen     []bool
	distinct int
}

func (e *entityStats) add(sym symtab.Sym, sent, rcvd int64) {
	i := int(sym)
	if i >= len(e.pairs) {
		e.pairs = grow(e.pairs, i+1)
		e.seen = grow(e.seen, i+1)
	}
	if !e.seen[i] {
		e.seen[i] = true
		e.distinct++
	}
	e.pairs[i].sent += sent
	e.pairs[i].rcvd += rcvd
}

// countVec is a dense symbol-indexed int64 column with presence bits.
type countVec struct {
	vals []int64
	seen []bool
}

func (v *countVec) add(i int, x int64) {
	if i >= len(v.vals) {
		v.vals = grow(v.vals, i+1)
		v.seen = grow(v.seen, i+1)
	}
	v.vals[i] += x
	v.seen[i] = true
}

type antAcc struct {
	seen             bool
	total, ant, cl   int64
	antSent, antRcvd int64
	clSent, clRcvd   int64
}

type coverageEntry struct {
	appIndex int
	percent  float64
	methods  float64
}

func growBools(s []bool, i int) []bool {
	if i >= len(s) {
		s = grow(s, i+1)
	}
	return s
}

// grow extends s to length n in a single reallocation (doubling the
// capacity, so a symbol-indexed column reaching its final width costs
// O(log n) allocations instead of one per append). New elements are
// zero-valued.
func grow[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		// The tail beyond len was zeroed at allocation and never written
		// (columns only grow), but re-zero defensively: growth is rare and
		// correctness here underpins every figure.
		t := s[:n]
		var zero T
		for i := len(s); i < n; i++ {
			t[i] = zero
		}
		return t
	}
	c := 2 * cap(s)
	if c < n {
		c = n
	}
	t := make([]T, n, c)
	copy(t, s)
	return t
}

// observe folds one run. The app index orders the Fig10 coverage series
// deterministically regardless of stream-completion order.
func (c *core) observe(appIndex int, run *attribution.RunResult) error {
	if c.finished {
		return fmt.Errorf("analysis: accumulator already finished")
	}
	if run == nil {
		return fmt.Errorf("analysis: nil run")
	}
	c.runs++
	c.udpWire += run.UDPWireBytes
	c.dnsWire += run.DNSWireBytes
	c.tcpWire += run.TCPWireBytes
	c.coverage = append(c.coverage, coverageEntry{
		appIndex: appIndex,
		percent:  run.Coverage.Percent(),
		methods:  float64(run.Coverage.TotalMethods),
	})

	// The app-level symbols are constant across the run's flows; intern
	// them at the first attributed flow so runs without one intern nothing
	// (matching the map-based fold, where only folded flows created keys).
	var appSym, catSym symtab.Sym
	interned := false

	for _, f := range run.Flows {
		if f.Report == nil {
			c.unattributed++
			continue
		}
		if !interned {
			interned = true
			appSym = c.syms.apps.Intern(run.AppSHA)
			catSym = c.syms.appCats.Intern(string(run.AppCategory))
			c.addFig8App(appSym, catSym)
		}
		total := f.BytesSent + f.BytesReceived
		origin := c.syms.origins.Intern(f.OriginLibrary)
		two := c.syms.twoLevels.Intern(f.TwoLevelLibrary)
		dom := symtab.None
		if f.Domain != "" {
			dom = c.syms.domains.Intern(f.Domain)
		}
		domCat := c.syms.domainCats[dom] // None → DomUnknown fact

		c.flows++
		c.bytesSent += f.BytesSent
		c.bytesReceived += f.BytesReceived

		c.lib[libCell{catSym, domCat, origin, f.BuiltinOrigin}] += total
		c.twoBytes.add(int(two), total)
		c.twoBuiltin = growBools(c.twoBuiltin, int(two))
		if f.BuiltinOrigin || c.syms.twoPlatform[two] {
			c.twoBuiltin[two] = true
		}

		c.perApp.add(appSym, f.BytesSent, f.BytesReceived)
		c.perOrigin.add(origin, f.BytesSent, f.BytesReceived)
		if dom != symtab.None {
			// From the domain's perspective "sent" is what the server
			// transmitted (the app's received bytes).
			c.perDomain.add(dom, f.BytesReceived, f.BytesSent)
			c.domBytes.add(int(domCat), total)
		}

		if !f.BuiltinOrigin {
			if int(appSym) >= len(c.fig6) {
				c.fig6 = grow(c.fig6, int(appSym)+1)
			}
			acc := &c.fig6[appSym]
			acc.seen = true
			acc.total += total
			if c.syms.originAnT[origin] {
				acc.ant += total
				acc.antSent += f.BytesSent
				acc.antRcvd += f.BytesReceived
			}
			if c.syms.originCL[origin] {
				acc.cl += total
				acc.clSent += f.BytesSent
				acc.clRcvd += f.BytesReceived
			}
			c.addE4(origin, dom, f)
		}
	}
	return nil
}

// addE4 folds one non-builtin flow into the baseline cells.
func (c *core) addE4(origin, dom symtab.Sym, f *attribution.Flow) {
	v := c.syms.domainVerdicts[dom]
	if f.UserAgent != c.lastUA {
		c.lastUA, c.lastUAAd = f.UserAgent, c.ua.IsAdTraffic(f.UserAgent)
	}
	if c.lastUAAd {
		v |= baseline.UAAd
	}
	if contentAd.IsAdTraffic(f.ContentType, f.BytesReceived) {
		v |= baseline.ContentAd
	}
	c.e4[e4Cell{origin, v}] += f.BytesSent + f.BytesReceived
}

// addFig8App records that app contributed traffic under cat (apps can show
// up under several categories across corpus versions; the list is 1 long in
// practice).
func (c *core) addFig8App(app, cat symtab.Sym) {
	for len(c.fig8Cats) <= int(app) {
		c.fig8Cats = append(c.fig8Cats, nil)
	}
	for _, existing := range c.fig8Cats[app] {
		if existing == cat {
			return
		}
	}
	c.fig8Cats[app] = append(c.fig8Cats[app], cat)
}

// contentAd is the content-type baseline; it holds no state.
var contentAd baseline.ContentTypeClassifier

// finish resolves the deferred library categories through the detector's
// database — exactly once per origin symbol — and freezes the aggregates.
// Further observations are rejected afterwards.
func (c *core) finish(detector *libradar.Detector) (*Aggregates, error) {
	if detector == nil {
		return nil, fmt.Errorf("analysis: nil detector")
	}
	if c.finished {
		return nil, fmt.Errorf("analysis: accumulator already finished")
	}
	c.finished = true
	syms := c.syms

	originCats := make([]corpus.LibraryCategory, syms.origins.Len())
	for i := range originCats {
		originCats[i] = detector.Categorize(syms.origins.String(symtab.Sym(i)))
	}

	ag := &Aggregates{
		Runs:              c.runs,
		UnattributedFlows: c.unattributed,
	}

	// Totals.
	ag.totals = Totals{
		BytesSent:       c.bytesSent,
		BytesReceived:   c.bytesReceived,
		Flows:           c.flows,
		DistinctOrigins: c.perOrigin.distinct,
		DistinctDomains: c.perDomain.distinct,
		DistinctApps:    c.perApp.distinct,
		UDPWireBytes:    c.udpWire,
		DNSWireBytes:    c.dnsWire,
		TCPWireBytes:    c.tcpWire,
	}

	// Figures 2, 3's builtin markers, 7's library panel, 8 and 9 read
	// the library cells. Builtin cells have no LibRadar category and land
	// on LibUnknown in Figure 2; Figures 7 and 9 read only the other
	// cells, under their origin's category.
	m := &CategoryMatrix{
		Bytes:       make(map[corpus.AppCategory]map[corpus.LibraryCategory]int64),
		LegendShare: make(map[corpus.LibraryCategory]float64),
	}
	h := &Heatmap{Bytes: make(map[corpus.LibraryCategory]map[corpus.DomainCategory]int64)}
	perLib := make(map[corpus.LibraryCategory]int64)
	libBytes := make(map[corpus.LibraryCategory]int64)
	libMembers := make(map[corpus.LibraryCategory]int)
	catBytes := make(map[symtab.Sym]int64)
	originBuiltin := make([]bool, syms.origins.Len())
	nbOrigin := make([]bool, syms.origins.Len())
	for k, v := range c.lib {
		lib := corpus.LibUnknown
		if k.builtin {
			originBuiltin[k.origin] = true
		} else {
			lib = originCats[k.origin]
			libBytes[lib] += v
			if !nbOrigin[k.origin] {
				nbOrigin[k.origin] = true
				libMembers[lib]++
			}
			addCell(h.Bytes, lib, syms.domainCategoryAt(k.domCat), v)
		}
		addCell(m.Bytes, syms.appCategory(k.appCat), lib, v)
		perLib[lib] += v
		m.Total += v
		catBytes[k.appCat] += v
	}
	if m.Total > 0 {
		for cat, b := range perLib {
			m.LegendShare[cat] = float64(b) / float64(m.Total)
		}
	}
	ag.fig2 = m
	ag.fig9 = h

	// E4: every baseline against context-aware attribution, with the
	// known-library CDN volume of categorized origins.
	for k, v := range c.e4 {
		contextAd := syms.originAnT[k.origin]
		knownLibCDN := k.verdict&baseline.HostCDN != 0 && originCats[k.origin] != corpus.LibUnknown
		ag.e4[0].Add(v, contextAd, k.verdict&baseline.UAAd != 0, knownLibCDN)
		ag.e4[1].Add(v, contextAd, k.verdict&baseline.HostAd != 0, knownLibCDN)
		ag.e4[2].Add(v, contextAd, k.verdict&baseline.ContentAd != 0, knownLibCDN)
	}

	// Figure 3 rankings (full; truncated per call). Origin bytes are the
	// perOrigin pair totals.
	origins := make([]RankedLibrary, 0, c.perOrigin.distinct)
	for i, seen := range c.perOrigin.seen {
		if !seen {
			continue
		}
		p := c.perOrigin.pairs[i]
		origins = append(origins, RankedLibrary{
			Name:    syms.origins.String(symtab.Sym(i)),
			Bytes:   p.sent + p.rcvd,
			Builtin: originBuiltin[i],
		})
	}
	ag.fig3Origins = sortRanked(origins)
	twoLevel := make([]RankedLibrary, 0, len(c.twoBytes.vals))
	for i, seen := range c.twoBytes.seen {
		if !seen {
			continue
		}
		twoLevel = append(twoLevel, RankedLibrary{
			Name:    syms.twoLevels.String(symtab.Sym(i)),
			Bytes:   c.twoBytes.vals[i],
			Builtin: c.twoBuiltin[i],
		})
	}
	ag.fig3TwoLevel = sortRanked(twoLevel)

	// Figure 4 CDFs.
	ag.fig4 = []CDFSeries{
		c.perApp.cdf("App: Sent", true),
		c.perApp.cdf("App: Received", false),
		c.perOrigin.cdf("Lib: Sent", true),
		c.perOrigin.cdf("Lib: Received", false),
		c.perDomain.cdf("DNS: Sent", true),
		c.perDomain.cdf("DNS: Received", false),
	}

	// Figure 5 ratios.
	ag.fig5 = []RatioSeries{
		c.perApp.ratios("Apps"),
		c.perOrigin.ratios("Libs"),
		c.perDomain.ratios("DNS"),
	}

	// Figure 6.
	ag.fig6 = c.finishAnT()

	// Figure 7.
	avgs := &CategoryAverages{
		PerLibrary: make(map[corpus.LibraryCategory]float64),
		PerDomain:  make(map[corpus.DomainCategory]float64),
	}
	for cat, b := range libBytes {
		if n := libMembers[cat]; n > 0 {
			avgs.PerLibrary[cat] = float64(b) / float64(n)
		}
	}
	domMembers := make([]int, syms.domCats.Len())
	for d, seen := range c.perDomain.seen {
		if !seen {
			continue
		}
		domMembers[syms.domainCats[d]]++
	}
	for ci, seen := range c.domBytes.seen {
		if !seen {
			continue
		}
		if n := domMembers[ci]; n > 0 {
			avgs.PerDomain[syms.domainCategoryAt(symtab.Sym(ci))] = float64(c.domBytes.vals[ci]) / float64(n)
		}
	}
	ag.fig7 = avgs

	// Figure 8.
	appsPerCat := make([]int, syms.appCats.Len())
	for _, cats := range c.fig8Cats {
		for _, cat := range cats {
			appsPerCat[cat]++
		}
	}
	ag.fig8 = make(map[corpus.AppCategory]float64)
	for ci, b := range catBytes {
		if n := appsPerCat[ci]; n > 0 {
			ag.fig8[syms.appCategory(ci)] = float64(b) / float64(n)
		}
	}

	// Figure 10, in app-index order like the batch path's run order.
	sort.Slice(c.coverage, func(i, j int) bool { return c.coverage[i].appIndex < c.coverage[j].appIndex })
	cov := &CoverageStats{}
	var methods []float64
	for _, entry := range c.coverage {
		cov.Percents = append(cov.Percents, entry.percent)
		methods = append(methods, entry.methods)
	}
	cov.Mean = sim.Mean(cov.Percents)
	cov.MeanMethods = sim.Mean(methods)
	var above, aboveMethods int
	for i := range cov.Percents {
		if cov.Percents[i] > cov.Mean {
			above++
		}
		if methods[i] > cov.MeanMethods {
			aboveMethods++
		}
	}
	if n := len(cov.Percents); n > 0 {
		cov.FracAboveMean = float64(above) / float64(n)
		cov.FracAboveMeanMethods = float64(aboveMethods) / float64(n)
	}
	ag.fig10 = cov

	// Half-traffic concentration.
	ag.half = HalfTrafficCounts{
		Apps:    c.perApp.halfCount(),
		Origins: c.perOrigin.halfCount(),
		Domains: c.perDomain.halfCount(),
	}
	return ag, nil
}

// addCell adds v to m[row][col], making the row on first use.
func addCell[R, C comparable](m map[R]map[C]int64, row R, col C, v int64) {
	r := m[row]
	if r == nil {
		r = make(map[C]int64)
		m[row] = r
	}
	r[col] += v
}

// sortRanked orders a ranking volume-descending, name-ascending (Fig3).
func sortRanked(out []RankedLibrary) []RankedLibrary {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// cdf extracts one Figure 4 series: per-entity byte totals, sorted
// ascending.
func (e *entityStats) cdf(label string, sent bool) CDFSeries {
	vals := make([]float64, 0, e.distinct)
	for i, seen := range e.seen {
		if !seen {
			continue
		}
		if sent {
			vals = append(vals, float64(e.pairs[i].sent))
		} else {
			vals = append(vals, float64(e.pairs[i].rcvd))
		}
	}
	sort.Float64s(vals)
	return CDFSeries{Label: label, Values: vals}
}

// ratios extracts one Figure 5 series. Sorting before the mean keeps float
// summation independent of fold order.
func (e *entityStats) ratios(label string) RatioSeries {
	ratios := make([]float64, 0, e.distinct)
	for i, seen := range e.seen {
		if !seen {
			continue
		}
		p := e.pairs[i]
		if p.sent == 0 && label != "DNS" || p.rcvd == 0 && label == "DNS" {
			continue
		}
		var ratio float64
		if label == "DNS" {
			ratio = float64(p.sent) / float64(p.rcvd)
		} else {
			ratio = float64(p.rcvd) / float64(p.sent)
		}
		ratios = append(ratios, ratio)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ratios)))
	return RatioSeries{Label: label, Ratios: ratios, Mean: sim.Mean(ratios)}
}

// halfCount is ComputeHalfTraffic over the folded per-entity pairs. The
// empty-string entity (symbol None) is excluded, as in the string fold.
func (e *entityStats) halfCount() int {
	vols := make([]int64, 0, e.distinct)
	var total int64
	for i, seen := range e.seen {
		if !seen || i == int(symtab.None) {
			continue
		}
		v := e.pairs[i].sent + e.pairs[i].rcvd
		vols = append(vols, v)
		total += v
	}
	sort.Slice(vols, func(i, j int) bool { return vols[i] > vols[j] })
	var acc int64
	for i, v := range vols {
		acc += v
		if acc*2 >= total {
			return i + 1
		}
	}
	return len(vols)
}

// finishAnT freezes the Figure 6 prevalence statistics.
func (c *core) finishAnT() *AnTStats {
	st := &AnTStats{}
	var antOnly, someAnT, antFree, apps int
	var antRatios, clRatios []float64
	for i := range c.fig6 {
		a := &c.fig6[i]
		if !a.seen || a.total == 0 {
			continue
		}
		apps++
		st.AnTShares = append(st.AnTShares, float64(a.ant)/float64(a.total))
		st.CLShares = append(st.CLShares, float64(a.cl)/float64(a.total))
		switch {
		case a.ant == a.total:
			antOnly++
			someAnT++
		case a.ant > 0:
			someAnT++
		default:
			antFree++
		}
		if a.antSent > 0 {
			antRatios = append(antRatios, float64(a.antRcvd)/float64(a.antSent))
		}
		if a.clSent > 0 {
			clRatios = append(clRatios, float64(a.clRcvd)/float64(a.clSent))
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(st.AnTShares)))
	sort.Sort(sort.Reverse(sort.Float64Slice(st.CLShares)))
	if apps > 0 {
		st.FracAnTOnly = float64(antOnly) / float64(apps)
		st.FracSomeAnT = float64(someAnT) / float64(apps)
		st.FracAnTFree = float64(antFree) / float64(apps)
	}
	// Sort before averaging: float summation is order-dependent, so an
	// unsorted mean would differ bit-for-bit between fold orders.
	sort.Sort(sort.Reverse(sort.Float64Slice(antRatios)))
	sort.Sort(sort.Reverse(sort.Float64Slice(clRatios)))
	st.AnTFlowRatioMean = sim.Mean(antRatios)
	st.CLFlowRatioMean = sim.Mean(clRatios)
	return st
}
