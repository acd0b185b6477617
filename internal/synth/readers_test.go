package synth_test

import (
	"sync"
	"testing"

	"libspector/internal/art"
	"libspector/internal/dex"
	"libspector/internal/libradar"
	"libspector/internal/synth"
)

type nopPerformer struct{}

func (nopPerformer) Perform(*art.Thread, art.NetworkAction) error { return nil }

// One generated dex file is read concurrently by what reads it in a
// campaign — disassembly, the ART runtime's profiler, libradar and the
// signature translator. Its arenas are written only while it is built,
// so under -race (make race) the readers must not conflict.
func TestGeneratedFileConcurrentReaders(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Seed = 42
	cfg.NumApps = 4
	w, err := synth.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app, err := w.GenerateApp(1)
	if err != nil {
		t.Fatal(err)
	}
	f := app.Program.Dex
	readers := []func() error{
		func() error {
			d := dex.DisassembleFile(f)
			for _, sig := range d.Signatures() {
				if !d.Contains(sig) {
					t.Errorf("disassembly misses its own signature %q", sig)
				}
			}
			return nil
		},
		func() error {
			profiler, err := art.NewProfiler(art.ProfilerUnique, 0, f)
			if err != nil {
				return err
			}
			rt, err := art.NewRuntime(app.Program, profiler, nopPerformer{})
			if err != nil {
				return err
			}
			for a, act := range app.Program.Activities {
				for h := range act.Handlers {
					if err := rt.DispatchEvent(a, h); err != nil {
						return err
					}
				}
			}
			return nil
		},
		func() error {
			return libradar.SeededDetector().ObserveApp(app.APK.Manifest.Package, f.Packages())
		},
		func() error {
			tr := dex.NewSignatureTranslator(f)
			for i := 0; i < f.MethodCount(); i++ {
				m, _ := f.MethodAt(i)
				sig, _ := f.SignatureAt(i)
				if got, ok := tr.Translate(m.QualifiedName(), len(m.Params)); !ok || got == "" {
					t.Errorf("Translate(%s) = %q, %v", m.QualifiedName(), got, ok)
				}
				if _, ok := f.LookupSignature(sig); !ok {
					t.Errorf("LookupSignature(%q) missed", sig)
				}
				found := false
				for _, o := range f.LookupQualified(m.QualifiedName()) {
					if o.QualifiedName() != m.QualifiedName() {
						t.Errorf("LookupQualified(%s) returned %s", m.QualifiedName(), o.QualifiedName())
					}
					found = found || o.TypeSignature() == sig
				}
				if !found {
					t.Errorf("LookupQualified(%s) misses %q", m.QualifiedName(), sig)
				}
			}
			return nil
		},
	}
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for _, read := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := read(); err != nil {
					t.Error(err)
				}
			}()
		}
	}
	wg.Wait()
}
