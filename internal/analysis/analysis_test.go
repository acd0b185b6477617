package analysis

import (
	"bytes"
	"math"
	"net/netip"
	"testing"

	"libspector/internal/attribution"
	"libspector/internal/baseline"
	"libspector/internal/corpus"
	"libspector/internal/libradar"
	"libspector/internal/nets"
	"libspector/internal/pcap"
	"libspector/internal/xposed"
)

// staticCategorizer is a fixed domain→category table.
type staticCategorizer map[string]corpus.DomainCategory

func (s staticCategorizer) Categorize(domain string) corpus.DomainCategory {
	if c, ok := s[domain]; ok {
		return c
	}
	return corpus.DomUnknown
}

// mkFlow builds an attributed flow.
func mkFlow(origin, domain string, sent, rcvd int64, builtin bool) *attribution.Flow {
	f := &attribution.Flow{
		Tuple: pcap.FourTuple{
			SrcIP: nets.DefaultLocalAddr, SrcPort: 40000,
			DstIP: netip.AddrFrom4([4]byte{198, 18, 0, 1}), DstPort: 80,
		},
		Domain:        domain,
		BytesSent:     sent,
		BytesReceived: rcvd,
		Report:        &xposed.Report{},
		OriginLibrary: origin,
		BuiltinOrigin: builtin,
	}
	f.TwoLevelLibrary = libradar.TwoLevel(origin)
	if builtin {
		f.TwoLevelLibrary = origin
	}
	return f
}

// mkRun wraps flows into a run result.
func mkRun(sha, pkg string, cat corpus.AppCategory, flows ...*attribution.Flow) *attribution.RunResult {
	return &attribution.RunResult{
		AppSHA:      sha,
		AppPackage:  pkg,
		AppCategory: cat,
		Flows:       flows,
		Coverage:    attribution.Coverage{ExecutedMethods: 10, TotalMethods: 100},
	}
}

// testDetector knows two libraries.
func testDetector() *libradar.Detector {
	return libradar.NewDetector(map[string]corpus.LibraryCategory{
		"com.vungle.publisher": corpus.LibAdvertisement,
		"okhttp3":              corpus.LibDevelopmentAid,
		"com.unity3d.player":   corpus.LibGameEngine,
	})
}

// fold folds runs through an Accumulator, app index = slice position,
// and finishes it.
func fold(runs []*attribution.RunResult, detector *libradar.Detector, domains DomainCategorizer) (*Aggregates, error) {
	acc, err := NewAccumulator(domains)
	if err != nil {
		return nil, err
	}
	for i, run := range runs {
		if err := acc.Observe(i, run); err != nil {
			return nil, err
		}
	}
	return acc.Finish(detector)
}

func testAggregates(t *testing.T) *Aggregates {
	t.Helper()
	runs := []*attribution.RunResult{
		mkRun("sha-a", "com.app.a", "GAME_PUZZLE",
			mkFlow("com.vungle.publisher", "ads.example.com", 1000, 100_000, false),
			mkFlow("com.vungle.publisher", "cdn.example.net", 500, 200_000, false),
			mkFlow("okhttp3.internal.http", "api.example.com", 2000, 50_000, false),
		),
		mkRun("sha-b", "com.app.b", "TOOLS",
			mkFlow("com.app.b.net", "api.example.com", 1000, 30_000, false),
			mkFlow("*-Advertisement", "ads.example.com", 100, 10_000, true),
		),
		mkRun("sha-c", "com.app.c", "TOOLS",
			mkFlow("com.vungle.publisher", "ads.example.com", 200, 40_000, false),
		),
	}
	cats := staticCategorizer{
		"ads.example.com": corpus.DomAdvertisements,
		"cdn.example.net": corpus.DomCDN,
		"api.example.com": corpus.DomInfoTech,
	}
	ag, err := fold(runs, testDetector(), cats)
	if err != nil {
		t.Fatal(err)
	}
	return ag
}

// TestBaselinesOverFixture checks the §IV-E fold on the fixture: Vungle
// flows are context AnT, the builtin flow is left out, and the Vungle flow
// to the CDN host is the known-library CDN volume.
func TestBaselinesOverFixture(t *testing.T) {
	ua, host, content := testAggregates(t).Baselines()
	const vungle = 101_000 + 200_500 + 40_200
	for name, c := range map[string]baseline.Comparison{"ua": ua, "host": host, "content": content} {
		if c.TotalBytes != vungle+52_000+31_000 || c.ContextAnTBytes != vungle || c.KnownLibCDNBytes != 200_500 {
			t.Errorf("%s: %+v", name, c)
		}
	}
	// No flow carries a User-Agent or a Content-Type; the hostname
	// classifier calls both ads.example.com flows AnT and nothing else.
	if ua.BaselineAnTBytes != 0 || content.BaselineAnTBytes != 0 {
		t.Errorf("ua %+v, content %+v", ua, content)
	}
	if host.BaselineAnTBytes != 101_000+40_200 || host.AgreedBytes != host.BaselineAnTBytes || host.MissedBytes != 200_500 {
		t.Errorf("host %+v", host)
	}
}

func TestComputeTotals(t *testing.T) {
	ag := testAggregates(t)
	totals := ag.ComputeTotals()
	if totals.Flows != 6 {
		t.Errorf("flows = %d", totals.Flows)
	}
	if totals.DistinctApps != 3 {
		t.Errorf("apps = %d", totals.DistinctApps)
	}
	if totals.DistinctOrigins != 4 {
		t.Errorf("origins = %d, want 4", totals.DistinctOrigins)
	}
	if totals.DistinctDomains != 3 {
		t.Errorf("domains = %d", totals.DistinctDomains)
	}
	wantSent := int64(1000 + 500 + 2000 + 1000 + 100 + 200)
	if totals.BytesSent != wantSent {
		t.Errorf("sent = %d, want %d", totals.BytesSent, wantSent)
	}
}

func TestFig2Shares(t *testing.T) {
	ag := testAggregates(t)
	m := ag.Fig2CategoryTransfer()
	var sum float64
	for _, share := range m.LegendShare {
		sum += share
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("legend shares sum to %v", sum)
	}
	// Advertisement = vungle flows: 101000+200500+40200 = 341700.
	adsBytes := int64(341700)
	if got := m.LegendShare[corpus.LibAdvertisement]; math.Abs(got-float64(adsBytes)/float64(m.Total)) > 1e-9 {
		t.Errorf("ads share = %v", got)
	}
	order := m.AppCategoryOrder()
	if order[0] != "GAME_PUZZLE" {
		t.Errorf("top app category = %s", order[0])
	}
}

func TestFig3Rankings(t *testing.T) {
	ag := testAggregates(t)
	top := ag.Fig3TopOrigins(2)
	if len(top) != 2 {
		t.Fatalf("top = %d entries", len(top))
	}
	if top[0].Name != "com.vungle.publisher" {
		t.Errorf("top origin = %s", top[0].Name)
	}
	if top[0].Bytes != 341700 {
		t.Errorf("top origin bytes = %d", top[0].Bytes)
	}
	two := ag.Fig3TopTwoLevel(0)
	foundBuiltin := false
	for _, r := range two {
		if r.Name == "*-Advertisement" && r.Builtin {
			foundBuiltin = true
		}
	}
	if !foundBuiltin {
		t.Error("builtin pseudo-library missing from 2-level ranking")
	}
	if share := ag.TopShare(1, false); share <= 0.4 {
		t.Errorf("top-1 share = %v", share)
	}
}

func TestFig4CDF(t *testing.T) {
	ag := testAggregates(t)
	series := ag.Fig4CDF()
	if len(series) != 6 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		for i := 1; i < len(s.Values); i++ {
			if s.Values[i-1] > s.Values[i] {
				t.Errorf("series %s not sorted", s.Label)
			}
		}
		if got := s.At(math.Inf(1)); got != 1 {
			t.Errorf("series %s CDF at +inf = %v", s.Label, got)
		}
		if got := s.At(-1); got != 0 {
			t.Errorf("series %s CDF at -1 = %v", s.Label, got)
		}
	}
	// Apps: three sent totals 3500, 1100, 200.
	apps := series[0]
	if got := apps.At(1100); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("App Sent CDF(1100) = %v, want 2/3", got)
	}
}

func TestFig5Ratios(t *testing.T) {
	ag := testAggregates(t)
	ratios := ag.Fig5FlowRatios()
	if len(ratios) != 3 {
		t.Fatalf("ratio series = %d", len(ratios))
	}
	apps := ratios[0]
	if len(apps.Ratios) != 3 {
		t.Errorf("app ratios = %d", len(apps.Ratios))
	}
	// Sorted descending.
	for i := 1; i < len(apps.Ratios); i++ {
		if apps.Ratios[i-1] < apps.Ratios[i] {
			t.Error("app ratios not descending")
		}
	}
	// App c: 40000/200 = 200 — the maximum.
	if apps.Ratios[0] != 200 {
		t.Errorf("top app ratio = %v, want 200", apps.Ratios[0])
	}
	if TopDecileRatioMean(apps) != 200 {
		t.Errorf("top decile mean = %v", TopDecileRatioMean(apps))
	}
	if TopDecileRatioMean(RatioSeries{}) != 0 {
		t.Error("empty series top decile should be 0")
	}
	// The DNS series is from the server perspective: ads.example.com
	// transmitted 100000+10000+40000 and received 1000+100+200.
	dns := ratios[2]
	found := false
	for _, r := range dns.Ratios {
		if math.Abs(r-150000.0/1300) < 1e-9 {
			found = true
		}
	}
	if !found {
		t.Errorf("expected ads.example.com ratio %v in %v", 150000.0/1300, dns.Ratios)
	}
}

func TestFig6AnTStats(t *testing.T) {
	ag := testAggregates(t)
	st := ag.Fig6AnTShares()
	// App a: AnT 301500 of 353500 → partial. App b: builtin excluded, its
	// only counted flow is first-party → AnT-free. App c: 100% AnT.
	if math.Abs(st.FracAnTOnly-1.0/3) > 1e-9 {
		t.Errorf("AnT-only = %v, want 1/3", st.FracAnTOnly)
	}
	if math.Abs(st.FracSomeAnT-2.0/3) > 1e-9 {
		t.Errorf("some-AnT = %v, want 2/3", st.FracSomeAnT)
	}
	if math.Abs(st.FracAnTFree-1.0/3) > 1e-9 {
		t.Errorf("AnT-free = %v, want 1/3", st.FracAnTFree)
	}
	if st.AnTFlowRatioMean <= 0 {
		t.Error("AnT flow ratio not computed")
	}
	if len(st.AnTShares) != 3 || st.AnTShares[0] != 1 {
		t.Errorf("AnT shares = %v", st.AnTShares)
	}
}

func TestFig7Averages(t *testing.T) {
	ag := testAggregates(t)
	avgs := ag.Fig7Averages()
	// Advertisement: one distinct origin (vungle), 341700 bytes.
	if got := avgs.PerLibrary[corpus.LibAdvertisement]; got != 341700 {
		t.Errorf("per-library ads avg = %v", got)
	}
	// CDN: one domain with 200500 bytes.
	if got := avgs.PerDomain[corpus.DomCDN]; got != 200500 {
		t.Errorf("per-domain cdn avg = %v", got)
	}
	// ads domain: flows a1 (101000), b-builtin (10100), c (40200) → one
	// domain.
	if got := avgs.PerDomain[corpus.DomAdvertisements]; got != 151300 {
		t.Errorf("per-domain ads avg = %v", got)
	}
}

func TestFig8Averages(t *testing.T) {
	ag := testAggregates(t)
	avgs := ag.Fig8AppCategoryAverages()
	// TOOLS: apps b (31000+10100) and c (40200) → (41100+40200)/2.
	want := (41100.0 + 40200.0) / 2
	if got := avgs["TOOLS"]; math.Abs(got-want) > 1e-9 {
		t.Errorf("TOOLS avg = %v, want %v", got, want)
	}
}

func TestFig9Heatmap(t *testing.T) {
	ag := testAggregates(t)
	h := ag.Fig9Heatmap()
	if got := h.Bytes[corpus.LibAdvertisement][corpus.DomCDN]; got != 200500 {
		t.Errorf("ads→cdn = %d", got)
	}
	// Builtin flows are excluded from the heatmap.
	var builtinTotal int64
	for _, row := range h.Bytes {
		for _, b := range row {
			builtinTotal += b
		}
	}
	totals := ag.ComputeTotals()
	if builtinTotal >= totals.TotalBytes() {
		t.Error("heatmap should exclude builtin traffic")
	}
	share := h.ShareToDomain(corpus.LibAdvertisement, corpus.DomCDN)
	if math.Abs(share-200500.0/341700) > 1e-9 {
		t.Errorf("ads→cdn share = %v", share)
	}
	if h.ShareToDomain(corpus.LibPayment, corpus.DomCDN) != 0 {
		t.Error("empty category share should be 0")
	}
}

func TestFig10Coverage(t *testing.T) {
	ag := testAggregates(t)
	st := ag.Fig10Coverage()
	if len(st.Percents) != 3 {
		t.Fatalf("coverage points = %d", len(st.Percents))
	}
	if st.Mean != 10 {
		t.Errorf("mean coverage = %v, want 10", st.Mean)
	}
	if st.MeanMethods != 100 {
		t.Errorf("mean methods = %v", st.MeanMethods)
	}
}

func TestHalfTraffic(t *testing.T) {
	ag := testAggregates(t)
	half := ag.ComputeHalfTraffic()
	// App a alone carries 353500 of 424000 bytes — more than half.
	if half.Apps != 1 {
		t.Errorf("half-traffic apps = %d, want 1", half.Apps)
	}
	if half.Origins < 1 || half.Domains < 1 {
		t.Errorf("half = %+v", half)
	}
}

func TestCostModelPaperArithmetic(t *testing.T) {
	m := NewCostModel()
	// §IV-D: 15.58 MB per 8-minute run at $10/GB → $1.17 per hour.
	got := m.DollarsPerHour(15.58e6)
	if math.Abs(got-1.17) > 0.01 {
		t.Errorf("ads cost = $%.3f/h, want ~$1.17 (paper)", got)
	}
	// 2.2 MB → $0.17; 1.92 MB → $0.14; 40.3 MB → $3.02.
	if got := m.DollarsPerHour(2.2e6); math.Abs(got-0.17) > 0.01 {
		t.Errorf("analytics cost = $%.3f/h, want ~$0.17", got)
	}
	if got := m.DollarsPerHour(1.92e6); math.Abs(got-0.14) > 0.01 {
		t.Errorf("social cost = $%.3f/h, want ~$0.14", got)
	}
	if got := m.DollarsPerHour(40.3e6); math.Abs(got-3.02) > 0.01 {
		t.Errorf("game cost = $%.3f/h, want ~$3.02", got)
	}
}

func TestEnergyModelPaperArithmetic(t *testing.T) {
	m := NewEnergyModel()
	// (229 mA − 144.6 mA) × 3.85 V = 0.325 W.
	if math.Abs(m.ActivePowerW-0.325) > 0.001 {
		t.Errorf("active power = %v W, want 0.325", m.ActivePowerW)
	}
	// ≈ 635 B/s (the paper's figure, using 1 kB = 1024 B).
	if math.Abs(m.BytesPerSecond-648.6) > 20 {
		t.Errorf("transfer rate = %v B/s, want ~635-649", m.BytesPerSecond)
	}
	// With the paper's rounded constant, 15.6 MB ≈ 7800 J ≈ 2.17 Wh ≈
	// 18.7% of an 11.55 Wh battery.
	joules := 15.6e6 * PaperJoulesPerByte
	if math.Abs(joules-7800) > 10 {
		t.Errorf("paper-constant energy = %v J, want ~7800 (paper: 7794)", joules)
	}
	share := m.BatteryShare(joules)
	if math.Abs(share-0.187) > 0.005 {
		t.Errorf("battery share = %v, want ~0.187", share)
	}
	// The model's own derived J/B must be the same order of magnitude.
	if m.JoulesPerByte < 3e-4 || m.JoulesPerByte > 7e-4 {
		t.Errorf("derived J/B = %v, want ~5e-4", m.JoulesPerByte)
	}
}

func TestCostPerCategory(t *testing.T) {
	ag := testAggregates(t)
	costs := CostPerCategory(ag.Fig7Averages(), NewCostModel(), corpus.LibAdvertisement, corpus.LibPayment)
	if len(costs) != 2 {
		t.Fatalf("costs = %d entries", len(costs))
	}
	if costs[0].Category != corpus.LibAdvertisement || costs[0].DollarsPerHour <= 0 {
		t.Errorf("ads cost entry = %+v", costs[0])
	}
	if costs[1].BytesPerRun != 0 || costs[1].DollarsPerHour != 0 {
		t.Errorf("absent category should cost nothing: %+v", costs[1])
	}
}

func TestUnattributedFlowsCounted(t *testing.T) {
	run := mkRun("sha-x", "com.app.x", "TOOLS",
		mkFlow("com.vungle.publisher", "ads.example.com", 10, 100, false))
	run.Flows = append(run.Flows, &attribution.Flow{Domain: "ads.example.com"}) // no report
	ag, err := fold([]*attribution.RunResult{run}, testDetector(),
		staticCategorizer{"ads.example.com": corpus.DomAdvertisements})
	if err != nil {
		t.Fatal(err)
	}
	if ag.UnattributedFlows != 1 {
		t.Errorf("unattributed = %d", ag.UnattributedFlows)
	}
	if n := ag.ComputeTotals().Flows; n != 1 {
		t.Errorf("folded flows = %d", n)
	}
}

func TestSummarizeRoundTrip(t *testing.T) {
	ag := testAggregates(t)
	sum := ag.Summarize(10)
	if sum.Totals.Flows != 6 {
		t.Errorf("summary totals = %+v", sum.Totals)
	}
	if len(sum.Fig3TopOrigins) == 0 || sum.Fig5RatioMeans["apps"] <= 0 {
		t.Error("summary incomplete")
	}
	var buf bytes.Buffer
	if err := sum.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadSummary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Totals != sum.Totals {
		t.Error("totals changed through JSON round trip")
	}
	if decoded.Fig10CoverageMean != sum.Fig10CoverageMean {
		t.Error("coverage changed through JSON round trip")
	}
	if decoded.Fig9Heatmap[corpus.LibAdvertisement][corpus.DomCDN] !=
		sum.Fig9Heatmap[corpus.LibAdvertisement][corpus.DomCDN] {
		t.Error("heatmap changed through JSON round trip")
	}
	if _, err := ReadSummary(bytes.NewReader([]byte("{broken"))); err == nil {
		t.Error("broken JSON should fail")
	}
}

func TestCompareWithPaper(t *testing.T) {
	ag := testAggregates(t)
	rows := ag.CompareWithPaper()
	if len(rows) != 17 {
		t.Fatalf("comparison rows = %d, want 17", len(rows))
	}
	for _, r := range rows {
		if r.Name == "" || r.Paper <= 0 {
			t.Errorf("malformed row %+v", r)
		}
		if r.Band < 0 {
			t.Errorf("negative band in %+v", r)
		}
	}
}

func TestDiagonalShare(t *testing.T) {
	ag := testAggregates(t)
	h := ag.Fig9Heatmap()
	share := h.DiagonalShare()
	// Advertisement traffic: 101000+40200 on ads domains, 200500 on cdn →
	// diagonal = 141200 / 341700.
	want := 141200.0 / 341700.0
	if math.Abs(share-want) > 1e-9 {
		t.Errorf("diagonal share = %v, want %v", share, want)
	}
	empty := &Heatmap{Bytes: map[corpus.LibraryCategory]map[corpus.DomainCategory]int64{}}
	if empty.DiagonalShare() != 0 {
		t.Error("empty heatmap diagonal should be 0")
	}
}
