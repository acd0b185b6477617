package libspector_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"libspector"
	"libspector/internal/dispatch"
	"libspector/internal/journal"
)

// DefaultConfig's fingerprints from when the collector and the apk store
// were switches: with both on (the one pipeline today), and with both off.
const (
	collectorStoreFingerprint = "5b07e63966b925231e64f162bd44399f"
	flaglessFingerprint       = "6167a27d5bb7be8cddeff78ba439e97b"
)

// TestConfigFingerprint: the fingerprint must move with every field that
// shapes results and stay put for operational knobs, so a crashed faulted
// campaign can be resumed with the injector off. It is pinned to the
// value campaigns run with the collector and store switched on recorded,
// so their journals still resume.
func TestConfigFingerprint(t *testing.T) {
	if got := libspector.DefaultConfig().Fingerprint(); got != collectorStoreFingerprint {
		t.Errorf("DefaultConfig fingerprint = %s, want %s", got, collectorStoreFingerprint)
	}
	base := smallConfig(61, 10)
	shape := []func(*libspector.Config){
		func(c *libspector.Config) { c.Seed++ },
		func(c *libspector.Config) { c.Apps++ },
		func(c *libspector.Config) { c.MonkeyEvents++ },
		func(c *libspector.Config) { c.Throttle++ },
		func(c *libspector.Config) { c.DomainScale = 0.5 },
	}
	for i, mutate := range shape {
		cfg := base
		mutate(&cfg)
		if cfg.Fingerprint() == base.Fingerprint() {
			t.Errorf("result-shaping mutation %d did not change the fingerprint", i)
		}
	}
	operational := []func(*libspector.Config){
		func(c *libspector.Config) { c.Workers = 7 },
		func(c *libspector.Config) { c.MaxAttempts = 5 },
		func(c *libspector.Config) { c.FaultRate = 0.3 },
		func(c *libspector.Config) { c.Journal = "other.wal" },
		func(c *libspector.Config) { c.Resume = true },
	}
	for i, mutate := range operational {
		cfg := base
		mutate(&cfg)
		if cfg.Fingerprint() != base.Fingerprint() {
			t.Errorf("operational mutation %d changed the fingerprint", i)
		}
	}
}

// TestExperimentJournalResume drives the durability loop through the
// facade: a journaled campaign, evidence damage, a resume that repairs it
// with figures identical to an undamaged run, and a fingerprint refusal
// for a different seed.
func TestExperimentJournalResume(t *testing.T) {
	if testing.Short() {
		t.Skip("journaled fleet run skipped in -short mode")
	}
	dir := t.TempDir()
	cfg := smallConfig(59, 10)
	cfg.ArtifactDir = filepath.Join(dir, "artifacts")
	cfg.Journal = filepath.Join(dir, "campaign.wal")

	clean := smallConfig(59, 10)
	clean.ArtifactDir = filepath.Join(dir, "clean-artifacts")
	base, err := libspector.NewExperiment(clean)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Run(); err != nil {
		t.Fatal(err)
	}
	wantBytes := base.Aggregates().ComputeTotals().TotalBytes()
	wantAcct := base.Result().Accounting

	exp, err := libspector.NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Run(); err != nil {
		t.Fatal(err)
	}
	if got := exp.Aggregates().ComputeTotals().TotalBytes(); got != wantBytes {
		t.Errorf("journaled run diverged from clean run: %d vs %d bytes", got, wantBytes)
	}

	// Damage one stored run file; the resume must detect it, requeue the
	// run, and overwrite the entry with fresh evidence.
	entries, err := os.ReadDir(cfg.ArtifactDir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no artifacts persisted: %v", err)
	}
	victim := filepath.Join(cfg.ArtifactDir, entries[0].Name())
	blob, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x40
	if err := os.WriteFile(victim, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	resumeCfg := cfg
	resumeCfg.Resume = true
	resumed, err := libspector.NewExperiment(resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Run(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := resumed.Aggregates().ComputeTotals().TotalBytes(); got != wantBytes {
		t.Errorf("resumed run diverged: %d vs %d bytes", got, wantBytes)
	}
	if got := resumed.Result().Accounting; got != wantAcct {
		t.Errorf("resumed accounting diverged:\n got %+v\nwant %+v", got, wantAcct)
	}
	store, err := dispatch.NewArtifactStore(cfg.ArtifactDir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := store.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("store still damaged after resume: %d corrupt, %d incomplete",
			len(rep.Corrupt), len(rep.Incomplete))
	}

	// A different seed is a different campaign: the journal header check
	// must refuse to resume it.
	wrong := resumeCfg
	wrong.Seed++
	refused, err := libspector.NewExperiment(wrong)
	if err != nil {
		t.Fatal(err)
	}
	if err := refused.Run(); !errors.Is(err, journal.ErrFingerprintMismatch) {
		t.Errorf("seed mismatch not refused: %v", err)
	}
}

// TestRefusedResumeLeavesForeignJournalUntouched: resuming against a
// journal some other campaign wrote must be refused before recovery
// rewrites anything — the torn tail that journal carries is its owner's
// to truncate, not ours. A campaign that ran without the collector and
// store, when they were switches, is such another campaign.
func TestRefusedResumeLeavesForeignJournalUntouched(t *testing.T) {
	for name, tc := range map[string]struct {
		hdr journal.Header
		cfg libspector.Config
	}{
		"foreign":  {journal.Header{Seed: 1, Fingerprint: "someone-else", Apps: 10}, smallConfig(61, 10)},
		"flagless": {journal.Header{Seed: 42, Fingerprint: flaglessFingerprint, Apps: 500}, libspector.DefaultConfig()},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "foreign.wal")
			w, err := journal.Create(path, tc.hdr, journal.Options{SyncEvery: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.RunStarted(0); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Half a frame header: what a crash mid-append leaves behind.
			if _, err := f.Write([]byte{0x40, 0, 0, 0, 0xde}); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			cfg := tc.cfg
			cfg.Journal, cfg.Resume = path, true
			exp, err := libspector.NewExperiment(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := exp.Run(); !errors.Is(err, journal.ErrFingerprintMismatch) {
				t.Fatalf("foreign journal not refused: %v", err)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatalf("refused resume rewrote the foreign journal: %d bytes before, %d after", len(before), len(after))
			}
		})
	}
}
