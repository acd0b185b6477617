package libspector_test

import (
	"crypto/sha256"
	"errors"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"libspector/internal/dex"
)

// TestReleasedFilesPoisoned holds the ownership rule of generated dex
// files (DESIGN.md, "Methods live in per-file arenas"): once an app's
// lifecycle has applied, nothing that outlives it reads its dex file,
// which the worker then releases for the next app to build into. With
// every released file overwritten by 0xAA before its reuse, a diskless
// 64-app campaign, a durable campaign resumed from a cut journal and a
// 20%-faulted durable campaign must equal the same campaigns run with no
// reuse at all: every digest part (figures, runs, event log, result
// store, ...) and every stored run file of the artifact directory, its
// trace section included.
func TestReleasedFilesPoisoned(t *testing.T) {
	defer dex.SetRecycling(dex.SetRecycling(dex.RecycleOn))
	for name, d := range map[string]draw{
		"diskless": {Seed: 42, Apps: 64, Workers: 4, Shards: 1, MaxAttempts: 1},
		"resumed":  {Seed: 42, Apps: 24, Workers: 4, Shards: 1, MaxAttempts: 1, Durable: true, Stop: stopCut, At: 50},
		"faulted": {Seed: 42, Apps: 24, Workers: 4, Shards: 1, Faults: "emulator-abort,capture-truncate,datagram-drop,hook-fault",
			Rate: 0.2, MaxAttempts: 3, Durable: true},
	} {
		var runs [2]*outcome
		var artifacts [2]map[string][sha256.Size]byte
		for k, mode := range []dex.Recycling{dex.RecycleOff, dex.RecyclePoison} {
			dex.SetRecycling(mode)
			dir := t.TempDir()
			err := func() (err error) {
				defer catch(&err)
				runs[k] = runSingle(d, dir)
				artifacts[k] = hashTree(filepath.Join(dir, "artifacts"))
				return nil
			}()
			if err != nil {
				t.Fatalf("%s, recycling %d: %v", name, mode, err)
			}
		}
		if diff := runs[1].digest.diff(runs[0].digest, digestParts...); diff != "" {
			t.Errorf("%s: poisoned reuse differs from no reuse: %s", name, diff)
		}
		if !maps.Equal(artifacts[1], artifacts[0]) {
			t.Errorf("%s: poisoned reuse wrote another artifact directory (%d files) than no reuse (%d files)", name, len(artifacts[1]), len(artifacts[0]))
		}
		if d.Durable && len(artifacts[0]) == 0 {
			t.Errorf("%s: the durable campaign saved no artifacts", name)
		}
	}
}

// hashTree returns the sha256 of every file under root by its relative
// path; none when root does not exist.
func hashTree(root string) map[string][sha256.Size]byte {
	out := map[string][sha256.Size]byte{}
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		out[try1(filepath.Rel(root, path))] = sha256.Sum256(try1(os.ReadFile(path)))
		return nil
	})
	if !errors.Is(err, fs.ErrNotExist) {
		try(err)
	}
	return out
}
