package dispatch_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"libspector/internal/attribution"
	"libspector/internal/dispatch"
	"libspector/internal/dispatch/dispatchtest"
	"libspector/internal/faults"
	"libspector/internal/journal"
	"libspector/internal/obs"
)

// journaledCampaign bundles everything one durable fleet run needs.
type journaledCampaign struct {
	seed    uint64
	apps    int
	workers int
	store   *dispatch.ArtifactStore
}

// config assembles the campaign's dispatch config. w journals the run; rep
// (and the artifact store) drive resume when non-nil.
func (c *journaledCampaign) config(t *testing.T, w *journal.Writer, rep *journal.Replay, inj *faults.Injector) dispatch.Config {
	t.Helper()
	world := smallWorld(t, c.seed, c.apps)
	workers := c.workers
	if workers == 0 {
		workers = 3
	}
	cfg := dispatch.Config{
		Workers:         workers,
		Emulator:        shortOpts(c.seed),
		BaseSeed:        c.seed,
		Attributor:      newAttributor(t, c.seed, world),
		Artifacts:       c.store,
		ContinueOnError: true,
		MaxAttempts:     3,
		RetryBackoff:    time.Second,
		Faults:          inj,
		Journal:         w,
		Resume:          rep,
		// Fresh per run: a resumed campaign's registry must end where the
		// uninterrupted one's did, so neither may inherit the other's.
		Telemetry: obs.NewVirtual(nil),
	}
	return cfg
}

// campaignRecord is what sameOutcome compares beyond a Result: the
// campaign's final metrics snapshot and its completed runs.
type campaignRecord struct {
	snapshot []byte
	runs     []*attribution.RunResult
}

// campaignRecords holds each campaign's record, keyed by the Result it
// returned.
var campaignRecords = map[*dispatch.Result]campaignRecord{}

func (c *journaledCampaign) run(t *testing.T, w *journal.Writer, rep *journal.Replay, inj *faults.Injector) (*dispatch.Result, error) {
	t.Helper()
	world := smallWorld(t, c.seed, c.apps)
	cfg := c.config(t, w, rep, inj)
	res, runs, err := dispatchtest.Run(world, world.Resolver, cfg, c.store)
	if res != nil {
		// The two resume series describe the resume itself, not the
		// campaign; shard merge strips them the same way.
		snap := cfg.Telemetry.Metrics().Snapshot()
		delete(snap.Counters, obs.MResumeReplayed)
		delete(snap.Counters, obs.MResumeRequeued)
		data, jerr := json.MarshalIndent(snap, "", "  ")
		if jerr != nil {
			t.Fatal(jerr)
		}
		campaignRecords[res] = campaignRecord{data, runs}
	}
	return res, err
}

func (c *journaledCampaign) header() journal.Header {
	return journal.Header{Seed: c.seed, Fingerprint: "test-fp", Apps: c.apps}
}

// sameOutcome asserts a resumed campaign's externally visible results are
// byte-identical to the uninterrupted baseline: runs, the accounting
// ledger, and the failure/quarantine rosters (compared by index, attempt
// count, and error text — a replayed error is reconstructed from its
// recorded text, so pointer identity never holds).
func sameOutcome(t *testing.T, base, got *dispatch.Result) {
	t.Helper()
	// Telemetry identity: whatever each attempt charged — completed,
	// retried, failed or quarantined, live or replayed from the journal —
	// the registries end byte-identical.
	rb, rg := campaignRecords[base], campaignRecords[got]
	if rb.snapshot == nil || rg.snapshot == nil {
		t.Errorf("missing metrics snapshot (base %t, resumed %t)", rb.snapshot != nil, rg.snapshot != nil)
	} else if !bytes.Equal(rb.snapshot, rg.snapshot) {
		t.Errorf("resumed metrics snapshot differs from uninterrupted baseline:\nbase:\n%s\nresumed:\n%s", rb.snapshot, rg.snapshot)
	}
	if !reflect.DeepEqual(rb.runs, rg.runs) {
		t.Errorf("resumed runs differ from uninterrupted baseline (%d vs %d runs)", len(rg.runs), len(rb.runs))
	}
	if base.Accounting != got.Accounting {
		t.Errorf("accounting differs:\nbase    %+v\nresumed %+v", base.Accounting, got.Accounting)
	}
	if len(base.Failures) != len(got.Failures) {
		t.Fatalf("failures differ: base %d, resumed %d", len(base.Failures), len(got.Failures))
	}
	for i := range base.Failures {
		b, g := base.Failures[i], got.Failures[i]
		if b.AppIndex != g.AppIndex || b.Attempts != g.Attempts || b.Err.Error() != g.Err.Error() {
			t.Errorf("failure %d differs: base %+v, resumed %+v", i, b, g)
		}
	}
	if len(base.Quarantined) != len(got.Quarantined) {
		t.Fatalf("quarantines differ: base %d, resumed %d", len(base.Quarantined), len(got.Quarantined))
	}
	for i := range base.Quarantined {
		b, g := base.Quarantined[i], got.Quarantined[i]
		if b.AppIndex != g.AppIndex || b.Attempts != g.Attempts || b.LastErr.Error() != g.LastErr.Error() {
			t.Errorf("quarantine %d differs: base %+v, resumed %+v", i, b, g)
		}
	}
}

// recordBoundaries parses the journal's framing and returns the byte
// offset after each complete record.
func recordBoundaries(data []byte) []int64 {
	var offs []int64
	var off int64
	for off+8 <= int64(len(data)) {
		length := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		end := off + 8 + length
		if end > int64(len(data)) {
			break
		}
		off = end
		offs = append(offs, off)
	}
	return offs
}

// TestJournalRecordsCampaignLifecycle: a journaled campaign leaves a
// replayable log whose outcome census matches the accounting ledger, with
// every completed run's artifact sha present in the store.
func TestJournalRecordsCampaignLifecycle(t *testing.T) {
	store, err := dispatch.NewArtifactStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := &journaledCampaign{seed: 151, apps: 10, store: store}
	inj := newInjector(t, faults.Config{Seed: 151, Rate: 0.5, PoisonRate: 0.4,
		Classes: []faults.Class{faults.EmulatorAbort, faults.DatagramDrop}})
	path := filepath.Join(t.TempDir(), "campaign.journal")
	w, err := journal.Create(path, c.header(), journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.run(t, w, nil, inj)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornBytes != 0 || len(rep.InFlight) != 0 {
		t.Fatalf("clean campaign left torn bytes %d, in-flight %v", rep.TornBytes, rep.InFlight)
	}
	if got := rep.Header; got.Match(c.header()) != nil {
		t.Fatalf("header = %+v", got)
	}
	if len(rep.Outcomes) != c.apps {
		t.Fatalf("journal holds %d outcomes, want %d", len(rep.Outcomes), c.apps)
	}
	var completed, skipped, quarantined, failed int
	complete, _, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	stored := make(map[string]bool, len(complete))
	for _, sha := range complete {
		stored[sha] = true
	}
	for app, rec := range rep.Outcomes {
		switch {
		case rec.Quarantined:
			quarantined++
			if rec.Error == "" {
				t.Errorf("app %d quarantined without error text", app)
			}
		case rec.Outcome == journal.OutcomeRun:
			completed++
			if !stored[rec.ArtifactSHA] {
				t.Errorf("app %d journaled sha %s not in store", app, rec.ArtifactSHA)
			}
		case rec.Outcome == journal.OutcomeSkip:
			skipped++
		case rec.Outcome == journal.OutcomeFailed:
			failed++
		}
	}
	acct := res.Accounting
	if completed != acct.Completed || skipped != acct.SkippedARMOnly ||
		quarantined != acct.Quarantined || failed != acct.Failed {
		t.Errorf("journal census run/skip/quarantine/fail = %d/%d/%d/%d, ledger %d/%d/%d/%d",
			completed, skipped, quarantined, failed,
			acct.Completed, acct.SkippedARMOnly, acct.Quarantined, acct.Failed)
	}
}

// TestResumeAtEveryRecordBoundaryByteIdentical is the kill sweep: a
// campaign killed after any record — simulated by truncating the journal
// at each boundary — must resume to results byte-identical to the
// uninterrupted same-seed run.
func TestResumeAtEveryRecordBoundaryByteIdentical(t *testing.T) {
	store, err := dispatch.NewArtifactStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := &journaledCampaign{seed: 157, apps: 10, store: store}
	inj := newInjector(t, faults.Config{Seed: 157, Rate: 0.5, PoisonRate: 0.3,
		Classes: []faults.Class{faults.EmulatorAbort}})

	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.journal")
	w, err := journal.Create(basePath, c.header(), journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := c.run(t, w, nil, inj)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	boundaries := recordBoundaries(data)
	if len(boundaries) < 2*c.apps {
		t.Fatalf("only %d journal records for %d apps", len(boundaries), c.apps)
	}

	for k, cut := range boundaries {
		path := filepath.Join(dir, "cut.journal")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rw, rep, err := journal.Recover(path, journal.Options{SyncEvery: 1})
		if err != nil {
			t.Fatalf("boundary %d: recover: %v", k, err)
		}
		if err := rep.Header.Match(c.header()); err != nil {
			t.Fatalf("boundary %d: %v", k, err)
		}
		res, err := c.run(t, rw, rep, inj)
		if err != nil {
			t.Fatalf("boundary %d (%d records replayed): resume failed: %v", k, rep.Records, err)
		}
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}
		sameOutcome(t, base, res)
		if t.Failed() {
			t.Fatalf("boundary %d (%d records replayed, %d outcomes) diverged", k, rep.Records, len(rep.Outcomes))
		}
		// The resumed journal must itself replay to the full campaign.
		after, err := journal.Read(path)
		if err != nil {
			t.Fatalf("boundary %d: resumed journal unreadable: %v", k, err)
		}
		if len(after.Outcomes) != c.apps || len(after.InFlight) != 0 {
			t.Fatalf("boundary %d: resumed journal holds %d outcomes, %d in flight",
				k, len(after.Outcomes), len(after.InFlight))
		}
	}
}

// TestResumeRequeuesCorruptEvidence is the acceptance path: a bit flipped
// in stored evidence after the campaign is caught by the audit, and a
// resume re-runs exactly that app — repairing the store — instead of
// attributing from rotten bytes.
func TestResumeRequeuesCorruptEvidence(t *testing.T) {
	store, err := dispatch.NewArtifactStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := &journaledCampaign{seed: 173, apps: 8, store: store}
	path := filepath.Join(t.TempDir(), "campaign.journal")
	w, err := journal.Create(path, c.header(), journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := c.run(t, w, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	complete, _, err := store.List()
	if err != nil || len(complete) == 0 {
		t.Fatalf("List = %v, %v", complete, err)
	}
	victim := complete[0]
	flipByte(t, store, victim, "app.apk", 42)

	report, err := store.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Corrupt) != 1 || report.Corrupt[0].SHA != victim {
		t.Fatalf("audit = %+v, want exactly the flipped entry", report.Corrupt)
	}

	rw, rep, err := journal.Recover(path, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.run(t, rw, rep, nil)
	if err != nil {
		t.Fatalf("resume over corrupt evidence failed: %v", err)
	}
	_ = rw.Close()
	sameOutcome(t, base, res)

	// The requeued run re-saved fresh evidence: the store is whole again.
	report, err = store.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Errorf("resume left the store damaged: %+v", report)
	}
}
