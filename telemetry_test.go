package libspector_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"libspector"
	"libspector/internal/obs"
)

// telemetryRun executes one collector-backed fleet under a virtual
// telemetry clock and returns the serialized metrics snapshot and span
// trace.
func telemetryRun(t *testing.T, seed uint64, apps int) (snapshot, traces []byte) {
	t.Helper()
	tel := obs.NewVirtual(nil)
	cfg := smallConfig(seed, apps)
	cfg.Workers = 4
	cfg.UseCollector = true
	cfg.RetryBackoff = 250 * time.Millisecond // activates the fleet virtual clock
	cfg.MaxAttempts = 2
	cfg.Telemetry = tel
	exp, err := libspector.NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Run(); err != nil {
		t.Fatal(err)
	}
	snap, err := json.MarshalIndent(tel.Metrics().Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tel.Tracer().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return snap, buf.Bytes()
}

// TestTelemetryByteDeterminism is the golden check of the telemetry model:
// two fleets with identical seeds, four parallel workers each, must
// serialize byte-identical metrics snapshots AND byte-identical span
// traces. Worker interleaving differs between the runs; only commutative
// int64 accumulation, virtual-clock timing, wall-only series suppression,
// and sorted serialization make the bytes line up.
func TestTelemetryByteDeterminism(t *testing.T) {
	snapA, tracesA := telemetryRun(t, 61, 12)
	snapB, tracesB := telemetryRun(t, 61, 12)
	if !bytes.Equal(snapA, snapB) {
		t.Errorf("same-seed metrics snapshots differ:\n--- run A ---\n%s\n--- run B ---\n%s", snapA, snapB)
	}
	if !bytes.Equal(tracesA, tracesB) {
		t.Errorf("same-seed span traces differ:\n--- run A ---\n%s\n--- run B ---\n%s", tracesA, tracesB)
	}
	if len(tracesA) == 0 {
		t.Fatal("trace serialization is empty")
	}
	// Spot-check the snapshot contents: a virtual snapshot must carry the
	// fleet series and must not carry any wall-only series.
	var snap obs.Snapshot
	if err := json.Unmarshal(snapA, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters[obs.MFleetApps] != 12 {
		t.Errorf("%s = %d, want 12", obs.MFleetApps, snap.Counters[obs.MFleetApps])
	}
	if _, ok := snap.Histograms[obs.MAttribWallUS]; ok {
		t.Errorf("wall-only series %s leaked into a virtual snapshot", obs.MAttribWallUS)
	}
}

// TestTelemetryDisabledFleetUnaffected guards the nil path: a fleet with no
// telemetry configured must run exactly as before, and the facade must not
// invent a registry behind the caller's back.
func TestTelemetryDisabledFleetUnaffected(t *testing.T) {
	exp, err := libspector.NewExperiment(smallConfig(67, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Run(); err != nil {
		t.Fatal(err)
	}
	if len(exp.Result().Runs) == 0 {
		t.Fatal("fleet produced no runs")
	}
}
