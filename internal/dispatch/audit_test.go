package dispatch_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"libspector/internal/dispatch"
	"libspector/internal/dispatch/dispatchtest"
	"libspector/internal/faults"
)

// populatedStore runs a small fleet with evidence emission and returns the
// store plus the sorted stored checksums.
func populatedStore(t *testing.T, seed uint64, apps int) (*dispatch.ArtifactStore, []string) {
	t.Helper()
	world := smallWorld(t, seed, apps)
	store, err := dispatch.NewArtifactStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dispatchtest.Run(world, world.Resolver, dispatch.Config{
		Emulator:   shortOpts(seed),
		BaseSeed:   seed,
		Attributor: newAttributor(t, seed, world),
		Artifacts:  store,
	}); err != nil {
		t.Fatal(err)
	}
	shas, incomplete, err := store.List()
	if err != nil || len(incomplete) != 0 || len(shas) == 0 {
		t.Fatalf("List = %v, %v, %v", shas, incomplete, err)
	}
	return store, shas
}

// runFile is the path of sha's stored run.
func runFile(store *dispatch.ArtifactStore, sha string) string {
	return filepath.Join(store.Dir(), sha+".run")
}

// flipByte XORs one bit of a stored run file; a negative offset counts
// from its end.
func flipByte(t *testing.T, store *dispatch.ArtifactStore, sha string, offset int) {
	t.Helper()
	data, err := os.ReadFile(runFile(store, sha))
	if err != nil {
		t.Fatal(err)
	}
	if offset < 0 {
		offset += len(data)
	}
	data[offset] ^= 0x01
	if err := os.WriteFile(runFile(store, sha), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadSurfacesCorruptArtifact: a stored run whose bytes no longer
// match their seal, or that is filed under another run's key, must come
// back as the typed ErrCorruptArtifact, not as silently wrong evidence or
// an untyped string error.
func TestLoadSurfacesCorruptArtifact(t *testing.T) {
	store, shas := populatedStore(t, 131, 3)

	// Pristine entries load cleanly.
	if _, err := store.Load(shas[0]); err != nil {
		t.Fatalf("clean load failed: %v", err)
	}

	flipByte(t, store, shas[0], 100)
	_, err := store.Load(shas[0])
	if !errors.Is(err, dispatch.ErrCorruptArtifact) {
		t.Fatalf("flipped run load error = %v, want ErrCorruptArtifact", err)
	}
	if !strings.Contains(err.Error(), shas[0]) {
		t.Errorf("corrupt error should name the entry: %v", err)
	}

	// A torn run file is corruption too.
	data, readErr := os.ReadFile(runFile(store, shas[1]))
	if readErr != nil {
		t.Fatal(readErr)
	}
	if err := os.WriteFile(runFile(store, shas[1]), data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(shas[1]); !errors.Is(err, dispatch.ErrCorruptArtifact) {
		t.Errorf("torn run load error = %v, want ErrCorruptArtifact", err)
	}

	// An intact run filed under another run's key.
	data, readErr = os.ReadFile(runFile(store, shas[2]))
	if readErr != nil {
		t.Fatal(readErr)
	}
	if err := os.WriteFile(runFile(store, shas[1]), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(shas[1]); !errors.Is(err, dispatch.ErrCorruptArtifact) {
		t.Errorf("misfiled run load error = %v, want ErrCorruptArtifact", err)
	}

	// Plain I/O failures stay untyped: a missing entry is not corruption.
	if _, err := store.Load(strings.Repeat("f", 64)); err == nil || errors.Is(err, dispatch.ErrCorruptArtifact) {
		t.Errorf("missing entry error = %v, want untyped", err)
	}
}

// TestAuditReportsEveryDamageClass: Audit walks the whole store and buckets
// each entry as ok, corrupt, or incomplete.
func TestAuditReportsEveryDamageClass(t *testing.T) {
	store, shas := populatedStore(t, 137, 4)

	report, err := store.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() || len(report.OK) != len(shas) {
		t.Fatalf("clean store audit = %+v", report)
	}

	// Damage one run near its start and another near its end, and leave
	// only a five-file-layout directory for a third.
	flipByte(t, store, shas[0], 7)
	flipByte(t, store, shas[1], -20)
	if err := os.Remove(runFile(store, shas[2])); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(store.Dir(), shas[2]), 0o755); err != nil {
		t.Fatal(err)
	}

	report, err = store.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if report.Clean() {
		t.Fatal("audit missed injected damage")
	}
	if len(report.OK) != len(shas)-3 {
		t.Errorf("OK = %v, want the one untouched entry", report.OK)
	}
	if len(report.Corrupt) != 2 {
		t.Fatalf("Corrupt = %+v, want 2 entries", report.Corrupt)
	}
	for _, c := range report.Corrupt {
		if !errors.Is(c.Err, dispatch.ErrCorruptArtifact) {
			t.Errorf("audit entry %s error untyped: %v", c.SHA, c.Err)
		}
	}
	if len(report.Incomplete) != 1 || report.Incomplete[0] != shas[2] {
		t.Errorf("Incomplete = %v, want [%s]", report.Incomplete, shas[2])
	}

	// Verify separates a missing run file (plain error) from content
	// damage.
	if err := store.Verify(shas[2]); err == nil || errors.Is(err, dispatch.ErrCorruptArtifact) {
		t.Errorf("Verify of amputated entry = %v, want untyped missing-file error", err)
	}
	if err := store.Verify(shas[0]); !errors.Is(err, dispatch.ErrCorruptArtifact) {
		t.Errorf("Verify of flipped entry = %v, want ErrCorruptArtifact", err)
	}
}

// TestArtifactFlipFaultDetectedByAudit: the artifact-flip crash class
// plants silent bit rot during the campaign itself, and only the integrity
// audit catches it.
func TestArtifactFlipFaultDetectedByAudit(t *testing.T) {
	world := smallWorld(t, 139, 4)
	store, err := dispatch.NewArtifactStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.New(faults.Config{
		Seed:    139,
		Rate:    1,
		Classes: []faults.Class{faults.ArtifactFlip},
	})
	if err != nil {
		t.Fatal(err)
	}
	store.SetFaults(inj)
	if _, _, err := dispatchtest.Run(world, world.Resolver, dispatch.Config{
		Emulator:   shortOpts(139),
		BaseSeed:   139,
		Attributor: newAttributor(t, 139, world),
		Artifacts:  store,
	}); err != nil {
		t.Fatal(err)
	}

	report, err := store.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Corrupt) == 0 {
		t.Fatal("audit found no corruption despite rate-1 artifact flips")
	}
	if len(report.OK) != 0 {
		t.Errorf("rate-1 flips left clean entries: %v", report.OK)
	}
	for _, c := range report.Corrupt {
		if !errors.Is(c.Err, dispatch.ErrCorruptArtifact) {
			t.Errorf("flip on %s produced untyped error: %v", c.SHA, c.Err)
		}
	}
}
