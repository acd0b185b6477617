package analysis_test

import (
	"bytes"
	"reflect"
	"testing"

	"libspector/internal/analysis"
	"libspector/internal/analysis/analysistest"
	"libspector/internal/attribution"
	"libspector/internal/dispatch"
	"libspector/internal/dispatch/dispatchtest"
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
	// One fleet run feeds both paths: the accumulator folds events as they
	// stream past while the test keeps every run for the batch Dataset.
	_, runs, err := dispatchtest.Run(world, world.Resolver, dispatch.Config{
		Workers:    4,
		Emulator:   opts,
		BaseSeed:   seed,
		Detector:   detector,
		Attributor: attribution.NewAttributor(domains),
	}, acc)
	if err != nil {
		t.Fatal(err)
	}
	detector.Finalize(2)

	ds, err := analysistest.BuildDataset(runs, detector, domains)
	if err != nil {
		t.Fatal(err)
	}
	ag, err := acc.Finish(detector)
	if err != nil {
		t.Fatal(err)
	}

	if ag.Runs != len(runs) {
		t.Errorf("aggregates folded %d runs, batch holds %d", ag.Runs, len(runs))
	}
	if ag.UnattributedFlows != ds.UnattributedFlows {
		t.Errorf("unattributed flows: streaming %d, batch %d", ag.UnattributedFlows, ds.UnattributedFlows)
	}

	// Every aggregate-backed section of the report renders byte-identically
	// (Table I comes from the domain service, not the fold).
	batch := report.Inputs{Aggregates: ds.Aggregates(), TopN: 25}
	stream := report.Inputs{Aggregates: ag, TopN: 25}
	for _, s := range report.Sections {
		if s.ID == "T1" || s.Records {
			continue
		}
		if b, st := s.Render(batch), s.Render(stream); b != st {
			t.Errorf("%s diverges between batch and streaming:\nbatch:\n%s\nstreaming:\n%s", s.ID, b, st)
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
