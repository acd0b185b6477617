package libspector_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"libspector"
	"libspector/internal/dispatch"
	"libspector/internal/faults"
	"libspector/internal/obs"
)

// shardCounts is the invariance matrix from the design: shard counts
// that divide the corpus evenly, unevenly, and not at all.
var shardCounts = []int{1, 2, 4, 7}

// campaignConfig is the shared base configuration for invariance tests:
// virtual telemetry (byte-deterministic snapshots), a real loopback
// collector, the version-selecting store, and a worker budget >= every
// tested shard count (the documented precondition for gauge identity).
func campaignConfig(seed uint64, apps int) libspector.Config {
	cfg := libspector.DefaultConfig()
	cfg.Seed = seed
	cfg.Apps = apps
	cfg.Workers = 8
	cfg.MonkeyEvents = 120
	cfg.UseCollector = true
	cfg.UseStore = true
	cfg.Telemetry = obs.NewVirtual(nil)
	return cfg
}

// campaignBytes is a campaign's comparable identity: the full figure
// summary, the accounting ledger, the merged metrics snapshot, and the
// flattened failure/quarantine records, all serialized.
type campaignBytes struct {
	figures     []byte
	accounting  []byte
	snapshot    []byte
	failures    []byte
	quarantined []byte
}

func renderFigures(t *testing.T, exp *libspector.Experiment) []byte {
	t.Helper()
	ag := exp.Aggregates()
	if ag == nil {
		t.Fatal("nil aggregates")
	}
	var buf bytes.Buffer
	if err := ag.Summarize(25).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// flatFailure is the comparable projection of a RunFailure (error values
// compare by text).
type flatFailure struct {
	App      int    `json:"app"`
	Err      string `json:"err"`
	Attempts int    `json:"attempts"`
}

func flattenFailures(fails []dispatch.RunFailure) []flatFailure {
	out := make([]flatFailure, 0, len(fails))
	for _, f := range fails {
		out = append(out, flatFailure{App: f.AppIndex, Err: f.Err.Error(), Attempts: f.Attempts})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].App < out[j].App })
	return out
}

func flattenQuarantine(qs []dispatch.QuarantinedApp) []flatFailure {
	out := make([]flatFailure, 0, len(qs))
	for _, q := range qs {
		out = append(out, flatFailure{App: q.AppIndex, Err: q.LastErr.Error(), Attempts: q.Attempts})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].App < out[j].App })
	return out
}

// baselineRun executes the uninterrupted single-process campaign.
func baselineRun(t *testing.T, cfg libspector.Config) campaignBytes {
	t.Helper()
	exp, err := libspector.NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Run(); err != nil {
		t.Fatal(err)
	}
	return campaignBytes{
		figures:     renderFigures(t, exp),
		accounting:  mustJSON(t, exp.Result().Accounting),
		snapshot:    mustJSON(t, cfg.Telemetry.Metrics().Snapshot()),
		failures:    mustJSON(t, flattenFailures(exp.Result().Failures)),
		quarantined: mustJSON(t, flattenQuarantine(exp.Result().Quarantined)),
	}
}

// shardedRun executes the same campaign as n in-process shards under the
// coordinator and returns its comparable identity plus the takeover
// count.
func shardedRun(t *testing.T, cfg libspector.Config, n int) (campaignBytes, int) {
	t.Helper()
	exp, err := libspector.NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.RunSharded(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != n {
		t.Fatalf("result reports %d shards, ran %d", res.Shards, n)
	}
	return campaignBytes{
		figures:     renderFigures(t, exp),
		accounting:  mustJSON(t, res.Accounting),
		snapshot:    mustJSON(t, res.Snapshot),
		failures:    mustJSON(t, flattenFailures(res.Failures)),
		quarantined: mustJSON(t, flattenQuarantine(res.Quarantined)),
	}, res.Takeovers
}

func diffCampaigns(t *testing.T, label string, want, got campaignBytes) {
	t.Helper()
	if !bytes.Equal(want.figures, got.figures) {
		t.Errorf("%s: figures diverged from single-process baseline:\nbaseline:\n%s\nsharded:\n%s", label, want.figures, got.figures)
	}
	if !bytes.Equal(want.accounting, got.accounting) {
		t.Errorf("%s: accounting ledger diverged:\nbaseline:\n%s\nsharded:\n%s", label, want.accounting, got.accounting)
	}
	if !bytes.Equal(want.snapshot, got.snapshot) {
		t.Errorf("%s: metrics snapshot diverged:\nbaseline:\n%s\nsharded:\n%s", label, want.snapshot, got.snapshot)
	}
	if !bytes.Equal(want.failures, got.failures) {
		t.Errorf("%s: failure records diverged:\nbaseline:\n%s\nsharded:\n%s", label, want.failures, got.failures)
	}
	if !bytes.Equal(want.quarantined, got.quarantined) {
		t.Errorf("%s: quarantine records diverged:\nbaseline:\n%s\nsharded:\n%s", label, want.quarantined, got.quarantined)
	}
}

// TestShardCountInvarianceHonest is the headline golden test: an honest
// campaign split across N in-process shards is byte-identical — figures,
// ledger, snapshot — to the uninterrupted single-process run, for every
// shard count in the matrix.
func TestShardCountInvarianceHonest(t *testing.T) {
	base := baselineRun(t, campaignConfig(71, 36))
	for _, n := range shardCounts {
		got, takeovers := shardedRun(t, campaignConfig(71, 36), n)
		if takeovers != 0 {
			t.Errorf("N=%d: honest campaign consumed %d takeovers", n, takeovers)
		}
		diffCampaigns(t, fmt.Sprintf("N=%d", n), base, got)
	}
}

// faultyConfig layers 20% transient faults with retry/quarantine on the
// campaign config. Every attempt runs live on both topologies (no
// journal, no replay), so the invariance must hold through the retry and
// quarantine machinery too.
func faultyConfig(seed uint64, apps int) libspector.Config {
	cfg := campaignConfig(seed, apps)
	cfg.FaultRate = 0.2
	cfg.FaultClasses = []faults.Class{faults.EmulatorAbort, faults.DatagramDrop, faults.HookFault}
	cfg.MaxAttempts = 3
	cfg.RetryBackoff = 250 * time.Millisecond
	cfg.ContinueOnError = true
	return cfg
}

func TestShardCountInvarianceUnderFaults(t *testing.T) {
	base := baselineRun(t, faultyConfig(73, 36))
	for _, n := range shardCounts {
		got, _ := shardedRun(t, faultyConfig(73, 36), n)
		diffCampaigns(t, fmt.Sprintf("N=%d faulted", n), base, got)
	}
}

// TestShardKillAndTakeover is the crash-safety half of the invariant: a
// campaign where 20% of apps carry a JournalCrash fault — the shard
// hosting them dies right after durably journaling the run — must still
// merge to the exact bytes of a never-faulted single-process run. The
// coordinator re-launches each dead shard, which resumes from its
// journal: completed runs (and their journaled telemetry meters) are
// replayed from the artifact store, never redone.
func TestShardKillAndTakeover(t *testing.T) {
	const seed, apps = 79, 24

	baseCfg := campaignConfig(seed, apps)
	baseCfg.Journal = filepath.Join(t.TempDir(), "campaign.journal")
	baseCfg.ArtifactDir = t.TempDir()
	base := baselineRun(t, baseCfg)

	for _, n := range []int{2, 4} {
		cfg := campaignConfig(seed, apps)
		cfg.Journal = filepath.Join(t.TempDir(), "campaign.journal")
		cfg.ArtifactDir = t.TempDir()
		cfg.FaultRate = 0.2
		cfg.FaultClasses = []faults.Class{faults.JournalCrash}
		got, takeovers := shardedRun(t, cfg, n)
		if takeovers == 0 {
			t.Fatalf("N=%d: no shard was ever killed — the crash fault never fired", n)
		}
		t.Logf("N=%d: %d takeovers", n, takeovers)
		diffCampaigns(t, fmt.Sprintf("N=%d killed", n), base, got)
	}
}

// TestResumeSnapshotUnderRunFaults pins replay's telemetry exactness under
// run faults: a journaled, artifact-backed campaign whose apps fail,
// retry, and (second case) quarantine is resumed over its complete
// journal — every app replays, none runs — and must reproduce the
// uninterrupted run's figures, ledger, rosters and metrics snapshot. The
// failed attempts' emulator/nets/xposed/collector charges exist only in
// the journal's per-attempt meters, so a replay that restores less than
// each attempt charged shows up as a snapshot diff. The two resume series
// describe the resume itself and are stripped, as shard merge does.
func TestResumeSnapshotUnderRunFaults(t *testing.T) {
	for _, tc := range []struct {
		name   string
		poison float64
	}{{"transient", 0}, {"poison", 0.5}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := faultyConfig(73, 36)
			cfg.FaultPoisonRate = tc.poison
			cfg.Journal = filepath.Join(t.TempDir(), "campaign.journal")
			cfg.ArtifactDir = t.TempDir()
			base := baselineRun(t, cfg)
			if tc.poison > 0 && string(base.quarantined) == "[]" {
				t.Fatal("poison case quarantined no app — it covers nothing the transient case does not")
			}

			cfg.Telemetry = obs.NewVirtual(nil)
			cfg.Resume = true
			resumed := baselineRun(t, cfg)
			snap := cfg.Telemetry.Metrics().Snapshot()
			if snap.Counters[obs.MResumeReplayed] != int64(cfg.Apps) {
				t.Fatalf("resume replayed %d of %d apps — the journal was not complete", snap.Counters[obs.MResumeReplayed], cfg.Apps)
			}
			delete(snap.Counters, obs.MResumeReplayed)
			delete(snap.Counters, obs.MResumeRequeued)
			resumed.snapshot = mustJSON(t, snap)
			diffCampaigns(t, "resumed", base, resumed)
		})
	}
}

// TestMergeShardOutcomesProcessMode drives the separate-process seam
// in-process: run each shard independently (as fleetscan children would),
// round-trip every outcome through the WriteShardOutcome/ReadShardOutcome
// file format, and merge — the result must match the single-process
// baseline bytes.
func TestMergeShardOutcomesProcessMode(t *testing.T) {
	base := baselineRun(t, campaignConfig(83, 20))

	const n = 3
	dir := t.TempDir()
	outcomes := make([]*dispatch.ShardOutcome, n)
	for i := 0; i < n; i++ {
		exp, err := libspector.NewExperiment(campaignConfig(83, 20))
		if err != nil {
			t.Fatal(err)
		}
		out, err := exp.RunShard(context.Background(), i, n)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		path := filepath.Join(dir, fmt.Sprintf("shard-%03d.json", i))
		if err := dispatch.WriteShardOutcome(path, out); err != nil {
			t.Fatal(err)
		}
		if outcomes[i], err = dispatch.ReadShardOutcome(path); err != nil {
			t.Fatal(err)
		}
	}

	exp, err := libspector.NewExperiment(campaignConfig(83, 20))
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.MergeShardOutcomes(outcomes)
	if err != nil {
		t.Fatal(err)
	}
	got := campaignBytes{
		figures:     renderFigures(t, exp),
		accounting:  mustJSON(t, res.Accounting),
		snapshot:    mustJSON(t, res.Snapshot),
		failures:    mustJSON(t, flattenFailures(res.Failures)),
		quarantined: mustJSON(t, flattenQuarantine(res.Quarantined)),
	}
	diffCampaigns(t, "process-mode", base, got)
}
