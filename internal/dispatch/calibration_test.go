package dispatch_test

import (
	"testing"

	"libspector/internal/analysis"
	"libspector/internal/analysis/analysistest"
	"libspector/internal/attribution"
	"libspector/internal/corpus"
	"libspector/internal/dispatch"
	"libspector/internal/emulator"
	"libspector/internal/libradar"
	"libspector/internal/synth"
	"libspector/internal/vtclient"
)

// fleet bundles the artifacts of an end-to-end run shared by the
// calibration and integration tests.
type fleet struct {
	world    *synth.World
	detector *libradar.Detector
	vt       *vtclient.Service
	result   *dispatch.Result
	dataset  *analysis.Dataset
}

// buildFleet runs a fleet end-to-end and returns the analysis dataset.
func buildFleet(t testing.TB, numApps int, seed uint64) *fleet {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Seed = seed
	cfg.NumApps = numApps
	world, err := synth.NewWorld(cfg)
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	detector := libradar.SeededDetector()
	for prefix, cat := range world.KnownLibraryDB() {
		if err := detector.AddKnownLibrary(prefix, cat); err != nil {
			t.Fatalf("AddKnownLibrary(%s): %v", prefix, err)
		}
	}
	vtSvc, err := vtclient.NewService(vtclient.NewOracle(seed, world.DomainTruth()))
	if err != nil {
		t.Fatalf("vtclient.NewService: %v", err)
	}
	res, err := dispatch.RunAll(world, world.Resolver, dispatch.Config{
		Emulator:   emulator.DefaultOptions(seed),
		BaseSeed:   seed,
		Detector:   detector,
		Attributor: attribution.NewAttributor(vtSvc),
	})
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	detector.Finalize(2)
	ds, err := analysistest.BuildDataset(res.Runs, detector, vtSvc)
	if err != nil {
		t.Fatalf("building dataset: %v", err)
	}
	return &fleet{world: world, detector: detector, vt: vtSvc, result: res, dataset: ds}
}

// within asserts that got lies in [lo, hi].
func within(t *testing.T, name string, got, lo, hi float64) {
	t.Helper()
	if got < lo || got > hi {
		t.Errorf("%s = %.3f, want within [%.3f, %.3f]", name, got, lo, hi)
	}
}

// TestCalibrationAgainstPaper runs a mid-sized fleet and checks that every
// headline measurement of §IV lands in the calibrated band around the
// paper's published value. The bands are deliberately loose — the point is
// shape (who wins, by roughly what factor), not digit-matching.
func TestCalibrationAgainstPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration fleet run skipped in -short mode")
	}
	fl := buildFleet(t, 150, 7)
	ds := fl.dataset

	totals := ds.ComputeTotals()
	if totals.DistinctApps < 130 {
		t.Fatalf("only %d apps produced traffic", totals.DistinctApps)
	}
	// ~1.23 MB per app in the paper (30.75 GB / 25,000).
	perApp := float64(totals.TotalBytes()) / 1e6 / float64(totals.DistinctApps)
	within(t, "MB per app", perApp, 0.6, 2.5)
	// Received dominates sent.
	if totals.BytesReceived < 10*totals.BytesSent {
		t.Errorf("received (%d) should dwarf sent (%d)", totals.BytesReceived, totals.BytesSent)
	}
	// UDP is a sliver of traffic and almost all DNS (paper: 0.52%, 97%).
	within(t, "UDP ratio %", 100*totals.UDPRatio(), 0.01, 2)
	within(t, "DNS share of UDP", totals.DNSShareOfUDP(), 0.9, 1.0)

	// Figure 2 legend shares (paper: ads 28.28%, dev-aid 26.34%, unknown
	// 25.3%, game engine 10.2%; ads must lead).
	m := ds.Fig2CategoryTransfer()
	ads := m.LegendShare[corpus.LibAdvertisement]
	devAid := m.LegendShare[corpus.LibDevelopmentAid]
	unknown := m.LegendShare[corpus.LibUnknown]
	game := m.LegendShare[corpus.LibGameEngine]
	within(t, "ads share", ads, 0.20, 0.36)
	within(t, "dev-aid share", devAid, 0.18, 0.33)
	within(t, "unknown share", unknown, 0.17, 0.33)
	within(t, "game-engine share", game, 0.05, 0.17)
	if ads <= m.LegendShare[corpus.LibMobileAnalytics] {
		t.Errorf("advertisement share %.3f should dominate analytics %.3f",
			ads, m.LegendShare[corpus.LibMobileAnalytics])
	}
	within(t, "app-market share", m.LegendShare[corpus.LibAppMarket], 0, 0.01)

	// Figure 5 ratio means (paper: apps 81×, libs 87×, domains 104×).
	ratios := ds.Fig5FlowRatios()
	within(t, "app ratio mean", ratios[0].Mean, 40, 160)
	within(t, "lib ratio mean", ratios[1].Mean, 40, 180)
	within(t, "domain ratio mean", ratios[2].Mean, 30, 200)

	// Figure 6 prevalence (paper: 35% AnT-only, 89% some AnT, ~10% free;
	// AnT flow ratio at least ~1.5× the common libraries').
	ant := ds.Fig6AnTShares()
	within(t, "AnT-only fraction", ant.FracAnTOnly, 0.25, 0.45)
	within(t, "some-AnT fraction", ant.FracSomeAnT, 0.80, 0.97)
	within(t, "AnT-free fraction", ant.FracAnTFree, 0.03, 0.20)
	if ant.AnTFlowRatioMean < 1.5*ant.CLFlowRatioMean {
		t.Errorf("AnT ratio %.1f should be well above CL ratio %.1f (paper: 54.8 vs 24.4)",
			ant.AnTFlowRatioMean, ant.CLFlowRatioMean)
	}

	// Figure 7: CDN domains receive far more per domain than ad domains
	// (paper: ~11×).
	avgs := ds.Fig7Averages()
	cdn := avgs.PerDomain[corpus.DomCDN]
	adsDom := avgs.PerDomain[corpus.DomAdvertisements]
	if cdn < 4*adsDom {
		t.Errorf("per-domain CDN average %.0f should be several times the ads average %.0f", cdn, adsDom)
	}

	// Figure 9: no 1-to-1 category correlation — a large share of
	// advertisement-library traffic lands on CDN and business domains
	// (paper: ads→CDN ≈ 29% via 2098/8697 MB).
	h := ds.Fig9Heatmap()
	within(t, "ads→cdn share", h.ShareToDomain(corpus.LibAdvertisement, corpus.DomCDN), 0.12, 0.40)
	adsToAds := h.ShareToDomain(corpus.LibAdvertisement, corpus.DomAdvertisements)
	if adsToAds > 0.75 {
		t.Errorf("ads→ads share %.2f too close to a 1-to-1 correlation", adsToAds)
	}

	// Figure 10: coverage mean ≈ 9.5%.
	cov := ds.Fig10Coverage()
	within(t, "coverage mean %", cov.Mean, 6, 15)
	if len(cov.Percents) != totals.DistinctApps {
		// Every analyzed app contributes a coverage point; a handful of
		// runs may have produced no traffic yet still have coverage.
		if len(cov.Percents) < totals.DistinctApps {
			t.Errorf("coverage points %d < apps with traffic %d", len(cov.Percents), totals.DistinctApps)
		}
	}

	// Concentration (§IV-A): a minority of entities causes half the bytes.
	half := ds.ComputeHalfTraffic()
	if 2*half.Apps > totals.DistinctApps {
		t.Errorf("half-traffic app count %d should be a minority of %d", half.Apps, totals.DistinctApps)
	}
	if 2*half.Origins > totals.DistinctOrigins {
		t.Errorf("half-traffic origin count %d should be a minority of %d", half.Origins, totals.DistinctOrigins)
	}
}
