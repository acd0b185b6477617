package analysis_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"libspector/internal/analysis"
	"libspector/internal/analysis/analysistest"
	"libspector/internal/attribution"
	"libspector/internal/corpus"
	"libspector/internal/dispatch"
	"libspector/internal/emulator"
	"libspector/internal/libradar"
	"libspector/internal/report"
	"libspector/internal/synth"
	"libspector/internal/vtclient"
)

// TestStreamingAccumulatorMatchesBatchDataset is the DESIGN.md §4.1
// determinism guarantee across the two analysis paths: folding the stream
// incrementally (Accumulator) must reproduce the batch Dataset's rendered
// figures and serialized summary byte-for-byte on the same fleet run.
func TestStreamingAccumulatorMatchesBatchDataset(t *testing.T) {
	const seed = 73
	cfg := synth.DefaultConfig()
	cfg.Seed = seed
	cfg.NumApps = 24
	world, err := synth.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	detector := libradar.SeededDetector()
	for prefix, cat := range world.KnownLibraryDB() {
		if err := detector.AddKnownLibrary(prefix, cat); err != nil {
			t.Fatal(err)
		}
	}
	domains, err := vtclient.NewService(vtclient.NewOracle(seed, world.DomainTruth()))
	if err != nil {
		t.Fatal(err)
	}
	opts := emulator.DefaultOptions(seed)
	opts.Monkey.Events = 150

	acc, err := analysis.NewAccumulator(domains)
	if err != nil {
		t.Fatal(err)
	}
	events, err := dispatch.Stream(context.Background(), world, world.Resolver, dispatch.Config{
		Workers:    4,
		Emulator:   opts,
		BaseSeed:   seed,
		Detector:   detector,
		Attributor: attribution.NewAttributor(domains),
	})
	if err != nil {
		t.Fatal(err)
	}
	// One fleet run feeds both paths: the accumulator folds events as they
	// stream past while Gather materializes the batch Result.
	res, err := dispatch.Gather(events, acc)
	if err != nil {
		t.Fatal(err)
	}
	detector.Finalize(2)

	ds, err := analysistest.BuildDataset(res.Runs, detector, domains)
	if err != nil {
		t.Fatal(err)
	}
	ag, err := acc.Finish(detector)
	if err != nil {
		t.Fatal(err)
	}

	if ag.Runs != len(res.Runs) {
		t.Errorf("aggregates folded %d runs, batch holds %d", ag.Runs, len(res.Runs))
	}
	if ag.UnattributedFlows != ds.UnattributedFlows {
		t.Errorf("unattributed flows: streaming %d, batch %d", ag.UnattributedFlows, ds.UnattributedFlows)
	}

	// Every figure/table renders byte-identically (F2–F10 plus the totals
	// both tables and the paper comparison derive from).
	avgsDS, avgsAG := ds.Fig7Averages(), ag.Fig7Averages()
	costCats := []corpus.LibraryCategory{
		corpus.LibAdvertisement, corpus.LibMobileAnalytics,
		corpus.LibSocialNetwork, corpus.LibDigitalIdentity, corpus.LibGameEngine,
	}
	model := analysis.NewCostModel()
	energy := analysis.NewEnergyModel()
	rendered := map[string][2]string{
		"Totals": {report.Totals(ds.ComputeTotals()), report.Totals(ag.ComputeTotals())},
		"Fig2":   {report.Fig2(ds.Fig2CategoryTransfer()), report.Fig2(ag.Fig2CategoryTransfer())},
		"Fig3": {report.Fig3(ds.Fig3TopOrigins(25), ds.Fig3TopTwoLevel(25)),
			report.Fig3(ag.Fig3TopOrigins(25), ag.Fig3TopTwoLevel(25))},
		"Fig4":  {report.Fig4(ds.Fig4CDF()), report.Fig4(ag.Fig4CDF())},
		"Fig5":  {report.Fig5(ds.Fig5FlowRatios()), report.Fig5(ag.Fig5FlowRatios())},
		"Fig6":  {report.Fig6(ds.Fig6AnTShares()), report.Fig6(ag.Fig6AnTShares())},
		"Fig7":  {report.Fig7(avgsDS), report.Fig7(avgsAG)},
		"Fig8":  {report.Fig8(ds.Fig8AppCategoryAverages()), report.Fig8(ag.Fig8AppCategoryAverages())},
		"Fig9":  {report.Fig9(ds.Fig9Heatmap()), report.Fig9(ag.Fig9Heatmap())},
		"Fig10": {report.Fig10(ds.Fig10Coverage()), report.Fig10(ag.Fig10Coverage())},
		"Costs": {report.Costs(analysis.CostPerCategory(avgsDS, model, costCats...)),
			report.Costs(analysis.CostPerCategory(avgsAG, model, costCats...))},
		"Energy": {report.Energy(energy, avgsDS.PerLibrary[corpus.LibAdvertisement]),
			report.Energy(energy, avgsAG.PerLibrary[corpus.LibAdvertisement])},
		"PaperComparison": {report.PaperComparison(ds.CompareWithPaper()),
			report.PaperComparison(ag.CompareWithPaper())},
	}
	for name, pair := range rendered {
		if pair[0] != pair[1] {
			t.Errorf("%s diverges between batch and streaming:\nbatch:\n%s\nstreaming:\n%s",
				name, pair[0], pair[1])
		}
	}

	if !reflect.DeepEqual(ds.ComputeHalfTraffic(), ag.ComputeHalfTraffic()) {
		t.Errorf("half-traffic counts: batch %+v, streaming %+v",
			ds.ComputeHalfTraffic(), ag.ComputeHalfTraffic())
	}

	// The serialized summary — every exact float bit included — must match.
	var batchJSON, streamJSON bytes.Buffer
	if err := ds.Summarize(25).WriteJSON(&batchJSON); err != nil {
		t.Fatal(err)
	}
	if err := ag.Summarize(25).WriteJSON(&streamJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(batchJSON.Bytes(), streamJSON.Bytes()) {
		t.Errorf("summary JSON diverges:\nbatch:\n%s\nstreaming:\n%s",
			batchJSON.String(), streamJSON.String())
	}
}

// TestAccumulatorValidation covers the constructor and lifecycle guards.
func TestAccumulatorValidation(t *testing.T) {
	if _, err := analysis.NewAccumulator(nil); err == nil {
		t.Error("nil domain categorizer should fail")
	}
	svc, err := vtclient.NewService(vtclient.NewOracle(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	acc, err := analysis.NewAccumulator(svc)
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Observe(0, nil); err == nil {
		t.Error("nil run should fail")
	}
	if _, err := acc.Finish(nil); err == nil {
		t.Error("nil detector should fail")
	}
	det := libradar.SeededDetector()
	det.Finalize(2)
	if _, err := acc.Finish(det); err != nil {
		t.Fatal(err)
	}
	if err := acc.Observe(0, &attribution.RunResult{}); err == nil {
		t.Error("observe after finish should fail")
	}
	if _, err := acc.Finish(det); err == nil {
		t.Error("double finish should fail")
	}
}
