package synth

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"libspector/internal/corpus"
	"libspector/internal/dex"
)

func smallConfig(seed uint64, apps int) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.NumApps = apps
	return cfg
}

func TestConfigValidation(t *testing.T) {
	broken := []func(*Config){
		func(c *Config) { c.NumApps = 0 },
		func(c *Config) { c.DomainScale = 0 },
		func(c *Config) { c.DomainScale = 1.5 },
		func(c *Config) { c.SyntheticLibsPerCategory = -1 },
		func(c *Config) { c.MethodScale = 0 },
		func(c *Config) { c.ARMOnlyRate = 1 },
		func(c *Config) { c.VolumeScale = 0 },
	}
	for i, mutate := range broken {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate config", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestWorldDomainsFollowTableIProportions(t *testing.T) {
	w, err := NewWorld(smallConfig(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	byCat := make(map[corpus.DomainCategory]int)
	names := make(map[string]bool)
	for _, d := range w.Domains {
		byCat[d.Category]++
		if names[d.Name] {
			t.Errorf("duplicate domain name %s", d.Name)
		}
		names[d.Name] = true
		if !d.Addr.Is4() {
			t.Errorf("domain %s has non-IPv4 address", d.Name)
		}
	}
	counts := corpus.TableIDomainCounts()
	for _, cat := range corpus.DomainCategories() {
		if byCat[cat] == 0 {
			t.Errorf("category %s has no domains", cat)
		}
		want := int(float64(counts[cat]) * w.Config().DomainScale)
		if want < 1 {
			want = 1
		}
		if byCat[cat] != want {
			t.Errorf("category %s has %d domains, want %d", cat, byCat[cat], want)
		}
	}
	// Every domain resolves.
	if w.Resolver.Len() != len(w.Domains) {
		t.Errorf("resolver has %d entries for %d domains", w.Resolver.Len(), len(w.Domains))
	}
}

func TestWorldLibraries(t *testing.T) {
	w, err := NewWorld(smallConfig(2, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Libraries) < len(corpus.SeedLibraries()) {
		t.Fatalf("library universe smaller than the seed set")
	}
	prefixes := make(map[string]bool)
	byCat := make(map[corpus.LibraryCategory]int)
	for _, lib := range w.Libraries {
		if prefixes[lib.Prefix] {
			t.Errorf("duplicate library prefix %s", lib.Prefix)
		}
		prefixes[lib.Prefix] = true
		byCat[lib.Category]++
	}
	for _, cat := range corpus.LibraryCategories() {
		if byCat[cat] == 0 {
			t.Errorf("no libraries in category %s", cat)
		}
	}
	db := w.KnownLibraryDB()
	if len(db) == 0 {
		t.Fatal("empty known-library DB")
	}
	for prefix, cat := range db {
		if !corpus.ValidLibraryCategory(cat) {
			t.Errorf("db entry %s has invalid category", prefix)
		}
	}
}

func TestWorldDeterminism(t *testing.T) {
	w1, err := NewWorld(smallConfig(9, 5))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := NewWorld(smallConfig(9, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(w1.Domains) != len(w2.Domains) {
		t.Fatal("domain universes differ in size")
	}
	for i := range w1.Domains {
		if w1.Domains[i] != w2.Domains[i] {
			t.Fatalf("domain %d differs: %+v vs %+v", i, w1.Domains[i], w2.Domains[i])
		}
	}
	a1, err := w1.GenerateApp(3)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := w2.GenerateApp(3)
	if err != nil {
		t.Fatal(err)
	}
	if a1.SHA256 != a2.SHA256 {
		t.Error("same seed and index should generate identical apks")
	}
}

func TestGenerateAppIndependentOfOrder(t *testing.T) {
	w, err := NewWorld(smallConfig(4, 6))
	if err != nil {
		t.Fatal(err)
	}
	// Generating app 5 before app 2 must not change either.
	a5first, err := w.GenerateApp(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.GenerateApp(2); err != nil {
		t.Fatal(err)
	}
	a5again, err := w.GenerateApp(5)
	if err != nil {
		t.Fatal(err)
	}
	if a5first.SHA256 != a5again.SHA256 {
		t.Error("app generation depends on generation order")
	}
}

func TestGenerateAppStructure(t *testing.T) {
	w, err := NewWorld(smallConfig(5, 30))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		app, err := w.GenerateApp(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := app.APK.Validate(); err != nil {
			t.Errorf("app %d apk invalid: %v", i, err)
		}
		if err := app.Program.Validate(); err != nil {
			t.Errorf("app %d program invalid: %v", i, err)
		}
		if app.SHA256 == "" || len(app.Encoded) == 0 {
			t.Errorf("app %d missing artifact", i)
		}
		if app.APK.Dex.MethodCount() < 80 {
			t.Errorf("app %d has only %d methods", i, app.APK.Dex.MethodCount())
		}
		// Net op domains must resolve in the world.
		for _, act := range app.Program.Activities {
			for _, h := range act.Handlers {
				for _, op := range h.NetOps {
					if _, err := w.Resolver.Resolve(op.Action.Domain); err != nil {
						t.Errorf("app %d references unresolvable domain %s", i, op.Action.Domain)
					}
					if op.Action.ResponseBytes <= 0 {
						t.Errorf("app %d has non-positive response size", i)
					}
				}
			}
		}
		// Library code must live under the declared prefixes.
		for _, li := range app.LibIdxs {
			prefix := w.Libraries[li].Prefix
			found := false
			for _, pkg := range app.Program.Dex.Packages() {
				if pkg == prefix || strings.HasPrefix(pkg, prefix+".") {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("app %d embeds library %s but has no code under it", i, prefix)
			}
		}
	}
	if _, err := w.GenerateApp(-1); err == nil {
		t.Error("negative index should fail")
	}
	if _, err := w.GenerateApp(30); err == nil {
		t.Error("out-of-range index should fail")
	}
}

func TestAnTProfileShares(t *testing.T) {
	w, err := NewWorld(smallConfig(6, 400))
	if err != nil {
		t.Fatal(err)
	}
	var only, free int
	for i := 0; i < 400; i++ {
		app, err := w.GenerateApp(i)
		if err != nil {
			t.Fatal(err)
		}
		if app.AnTOnly() {
			only++
		}
		if app.AnTFree() {
			free++
		}
	}
	if frac := float64(only) / 400; frac < 0.28 || frac > 0.42 {
		t.Errorf("AnT-only fraction %.2f, want ~0.35", frac)
	}
	if frac := float64(free) / 400; frac < 0.05 || frac > 0.16 {
		t.Errorf("AnT-free fraction %.2f, want ~0.10", frac)
	}
}

func TestARMOnlyRate(t *testing.T) {
	cfg := smallConfig(7, 400)
	cfg.ARMOnlyRate = 0.2
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	arm := 0
	for i := 0; i < 400; i++ {
		app, err := w.GenerateApp(i)
		if err != nil {
			t.Fatal(err)
		}
		if !app.APK.SupportsX86() {
			arm++
		}
	}
	if frac := float64(arm) / 400; frac < 0.12 || frac > 0.28 {
		t.Errorf("ARM-only fraction %.2f, want ~0.20", frac)
	}
}

func TestGameAppsGetGameEngines(t *testing.T) {
	w, err := NewWorld(smallConfig(8, 300))
	if err != nil {
		t.Fatal(err)
	}
	gamesWith, games, othersWith, others := 0, 0, 0, 0
	for i := 0; i < 300; i++ {
		app, err := w.GenerateApp(i)
		if err != nil {
			t.Fatal(err)
		}
		hasEngine := false
		for _, li := range app.LibIdxs {
			if w.Libraries[li].Category == corpus.LibGameEngine {
				hasEngine = true
				break
			}
		}
		if app.APK.Manifest.Category.IsGameCategory() {
			games++
			if hasEngine {
				gamesWith++
			}
		} else {
			others++
			if hasEngine {
				othersWith++
			}
		}
	}
	if games == 0 || others == 0 {
		t.Fatal("corpus lacks category diversity")
	}
	gameRate := float64(gamesWith) / float64(games)
	otherRate := float64(othersWith) / float64(others)
	if gameRate < 3*otherRate {
		t.Errorf("game-engine presence: games %.2f vs others %.2f — engines must concentrate in games",
			gameRate, otherRate)
	}
}

func TestDomainTruthExport(t *testing.T) {
	w, err := NewWorld(smallConfig(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	truth := w.DomainTruth()
	if len(truth) != len(w.Domains) {
		t.Errorf("truth has %d entries for %d domains", len(truth), len(w.Domains))
	}
	d, ok := w.DomainByName(w.Domains[0].Name)
	if !ok || d != w.Domains[0] {
		t.Error("DomainByName lookup failed")
	}
	if _, ok := w.DomainByName("no.such.domain"); ok {
		t.Error("DomainByName should miss unknown names")
	}
}

func TestNumApps(t *testing.T) {
	w, err := NewWorld(smallConfig(1, 17))
	if err != nil {
		t.Fatal(err)
	}
	if w.NumApps() != 17 {
		t.Errorf("NumApps = %d", w.NumApps())
	}
}

// Generation allocates per file and per class, not per method: signatures
// and parameter lists go into the dex file's arenas, sized from the
// method budget. What is left is about 0.35 allocations per method, mostly
// the class names (a class holds 4–15 methods); a signature and a
// parameter slice allocated per method would add ~2 per method.
//
// Recycled generation's bytes per method are
// TestRecycledGenerateAppBytesPerMethod's.
func TestGenerateAppAllocsPerMethod(t *testing.T) {
	defer dex.SetRecycling(dex.SetRecycling(dex.RecycleOn))
	cfg := smallConfig(42, 16)
	cfg.MethodScale = 0.1
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 4, 8} {
		app, err := w.GenerateApp(i)
		if err != nil {
			t.Fatal(err)
		}
		methods := app.Program.Dex.MethodCount()
		allocs := testing.AllocsPerRun(2, func() {
			if _, err := w.GenerateApp(i); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(methods/2 + 1024); allocs > limit {
			t.Errorf("app %d: GenerateApp allocates %.0f for %d methods, over %.0f", i, allocs, methods, limit)
		}
	}
}

// Recycled generation, each app released before the next, builds into
// the released dex file: in the steady state it allocates no method list,
// arena or index, only the class names, the encoded apk and the app's
// program. Nothing else it keeps grows with the method count: packages
// are index ranges and the reachable set is a permutation prefix, both
// sized by what the app's handlers and chains use. These apps measure
// 16–27 bytes per method that way; with a method-index list per
// package, a list of every method and a full permutation they measured
// 42–52, and 280–305 with a fresh file.
func TestRecycledGenerateAppBytesPerMethod(t *testing.T) {
	defer dex.SetRecycling(dex.SetRecycling(dex.RecycleOn))
	cfg := smallConfig(42, 16)
	cfg.MethodScale = 0.1
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 4, 8} {
		app, err := w.GenerateApp(i)
		if err != nil {
			t.Fatal(err)
		}
		methods := app.Program.Dex.MethodCount()
		// Warm the idle list, then measure generate-and-release.
		app.Release()
		const runs = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < runs; r++ {
			app, err := w.GenerateApp(i)
			if err != nil {
				t.Fatal(err)
			}
			app.Release()
		}
		runtime.ReadMemStats(&after)
		perMethod := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(methods)
		if limit := 35.0; perMethod > limit {
			t.Errorf("app %d: recycled GenerateApp allocates %.0f bytes per method for %d methods, over %.0f", i, perMethod, methods, limit)
		}
		t.Logf("app %d: %d methods, recycled %.1f bytes per method", i, methods, perMethod)
	}
}

// Two goroutines generate and release apps through the one idle list, in
// poison mode: each app must be byte-identical to its serial generation
// from fresh files, and its dex file must hold exactly its own methods
// while it is in use.
func TestGenerateAppReleaseConcurrent(t *testing.T) {
	cfg := smallConfig(42, 12)
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dex.SetRecycling(dex.SetRecycling(dex.RecycleOff))
	type ref struct {
		sha  string
		sigs []string
	}
	refs := make([]ref, cfg.NumApps)
	for i := range refs {
		app, err := w.GenerateApp(i)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref{app.SHA256, dex.DisassembleFile(app.Program.Dex).Signatures()}
	}
	dex.SetRecycling(dex.RecyclePoison)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 3*cfg.NumApps; n++ {
				i := (g*5 + n) % cfg.NumApps
				app, err := w.GenerateApp(i)
				if err != nil {
					t.Error(err)
					return
				}
				sigs := dex.DisassembleFile(app.Program.Dex).Signatures()
				if app.SHA256 != refs[i].sha || !slices.Equal(sigs, refs[i].sigs) {
					t.Errorf("goroutine %d: app %d differs from its serial generation", g, i)
					return
				}
				app.Release()
				if app.Program.Dex != nil || app.APK.Dex != nil {
					t.Errorf("goroutine %d: a released app still points at its dex file", g)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Generation's bytes per method, the apk encoded: mostly the dex file's
// method list, arenas and two indexes, and the encoded apk. The apk
// encoder and its string pool are reused from one app to the next, so
// they add nothing. These apps measure 255–280 bytes per method
// (280–305 with per-package index lists, a list of every method and a
// full permutation); the qualified index keyed per (class, name)
// instead of per class made 310–355, and a fresh compressor and string
// pool per app on top of the wider index 475–525.
func TestGenerateAppBytesPerMethod(t *testing.T) {
	cfg := smallConfig(42, 16)
	cfg.MethodScale = 0.1
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 4, 8} {
		app, err := w.GenerateApp(i)
		if err != nil {
			t.Fatal(err)
		}
		methods := app.Program.Dex.MethodCount()
		const runs = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < runs; r++ {
			if _, err := w.GenerateApp(i); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perMethod := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(methods)
		if limit := 400.0; perMethod > limit {
			t.Errorf("app %d: GenerateApp allocates %.0f bytes per method for %d methods, over %.0f", i, perMethod, methods, limit)
		}
	}
}
