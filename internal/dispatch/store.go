// Package dispatch implements the paper's data-collection framework
// (§II-B3): a database server holding the apk corpus, a job dispatcher
// fanning app runs out to parallel workers, and the central UDP collection
// server the Socket Supervisor reports to.
package dispatch

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"libspector/internal/apk"
	"libspector/internal/dex"
)

// StoreEntry is one apk version in the database, with the AndroZoo
// metadata the selection policy of §III-A uses. Encoded is what Put
// checks; the store keeps the rest, not the bytes.
type StoreEntry struct {
	Package    string
	Encoded    []byte
	SHA256     string
	DexDate    time.Time
	VTScanDate time.Time
}

// Store is the apk database server. Multiple versions of a package may
// coexist (AndroZoo keeps several); Select applies the paper's policy.
// A version is identified by its sha256, and the store holds its
// metadata only, so its heap does not grow with apk size.
type Store struct {
	mu      sync.RWMutex
	entries map[string][]StoreEntry
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{entries: make(map[string][]StoreEntry)}
}

// Put validates and adds one apk version. The checksum is recomputed
// server-side, the encoded bytes pass every check apk.Decode makes
// (apk.Check: the zip, the manifest, the dex, the ABIs) without a dex.File
// being built, and the manifest must name the entry's package; then the
// entry is kept without the bytes. Putting a version whose sha256 is
// already stored (a retried or requeued app) checks it again and changes
// nothing.
func (s *Store) Put(e StoreEntry) error {
	if e.Package == "" {
		return fmt.Errorf("dispatch: store entry has empty package")
	}
	if len(e.Encoded) == 0 {
		return fmt.Errorf("dispatch: store entry %s has no apk bytes", e.Package)
	}
	if sum := apk.Checksum(e.Encoded); e.SHA256 != "" && e.SHA256 != sum {
		return fmt.Errorf("dispatch: store entry %s checksum mismatch", e.Package)
	} else if e.SHA256 == "" {
		e.SHA256 = sum
	}
	manifest, err := apk.Check(e.Encoded)
	if err != nil {
		return fmt.Errorf("dispatch: store entry %s does not decode: %w", e.Package, err)
	}
	if manifest.Package != e.Package {
		return fmt.Errorf("dispatch: store entry package %s does not match manifest %s",
			e.Package, manifest.Package)
	}
	e.Encoded = nil
	s.mu.Lock()
	defer s.mu.Unlock()
	versions := s.entries[e.Package]
	for _, v := range versions {
		if v.SHA256 == e.SHA256 {
			return nil
		}
	}
	s.entries[e.Package] = append(versions, e)
	return nil
}

// Select returns the metadata of the apk version to analyze for a
// package, per §III-A: the latest dex timestamp wins; among versions with
// the default (1980) dex timestamp, the most recent VirusTotal scan wins.
// The store keeps neither the apk bytes nor anything decoded from them, so
// the entry's Encoded is nil; the caller identifies the version by SHA256
// and runs the program it already holds.
func (s *Store) Select(pkg string) (StoreEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	versions := s.entries[pkg]
	if len(versions) == 0 {
		return StoreEntry{}, fmt.Errorf("dispatch: package %s not in store", pkg)
	}
	best := versions[0]
	for _, v := range versions[1:] {
		if betterEntry(v, best) {
			best = v
		}
	}
	return best, nil
}

// betterEntry implements the §III-A ordering.
func betterEntry(a, b StoreEntry) bool {
	aDefault := isDefaultDexDate(a.DexDate)
	bDefault := isDefaultDexDate(b.DexDate)
	switch {
	case !aDefault && !bDefault:
		return a.DexDate.After(b.DexDate)
	case !aDefault:
		return true
	case !bDefault:
		return false
	default:
		return a.VTScanDate.After(b.VTScanDate)
	}
}

func isDefaultDexDate(t time.Time) bool {
	return t.IsZero() || t.Equal(dex.DefaultDexTime)
}

// Packages lists the stored package names, sorted.
func (s *Store) Packages() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.entries))
	for pkg := range s.entries {
		out = append(out, pkg)
	}
	sort.Strings(out)
	return out
}

// VersionCount reports how many distinct versions of a package are
// stored.
func (s *Store) VersionCount(pkg string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries[pkg])
}
