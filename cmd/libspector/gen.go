package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"libspector/internal/apk"
	"libspector/internal/corpus"
	"libspector/internal/synth"
)

// indexEntry is one corpus row in index.json.
type indexEntry struct {
	File       string             `json:"file"`
	Package    string             `json:"package"`
	SHA256     string             `json:"sha256"`
	Category   corpus.AppCategory `json:"category"`
	Methods    int                `json:"methods"`
	DexDate    time.Time          `json:"dex_date"`
	VTScanDate time.Time          `json:"vt_scan_date"`
	X86        bool               `json:"x86_compatible"`
}

// runGen implements "libspector gen": materialize the synthetic apk
// corpus on disk — one .apk file per app (the real zip container the apk
// package encodes) plus an index.json with the AndroZoo-style metadata
// the store selection policy consumes — or verify a previously generated
// corpus directory. A cancelled ctx stops at the next app; a partial
// corpus still gets a consistent index.json.
func runGen(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("libspector gen", flag.ContinueOnError)
	var (
		out    = fs.String("out", "", "output directory for the generated corpus")
		verify = fs.String("verify", "", "verify a previously generated corpus directory")
		apps   = fs.Int("apps", 100, "number of apps to generate")
		seed   = fs.Uint64("seed", 42, "generator seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *verify != "":
		return verifyCorpus(ctx, *verify)
	case *out != "":
		return generate(ctx, *out, *apps, *seed)
	default:
		return fmt.Errorf("one of -out or -verify is required")
	}
}

func generate(ctx context.Context, dir string, apps int, seed uint64) error {
	cfg := synth.DefaultConfig()
	cfg.Seed = seed
	cfg.NumApps = apps
	world, err := synth.NewWorld(cfg)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", dir, err)
	}
	interrupted := false
	index := make([]indexEntry, 0, apps)
	for i := 0; i < apps; i++ {
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		app, err := world.GenerateApp(i)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("%s-%s.apk", app.APK.Manifest.Package, app.SHA256[:8])
		if err := os.WriteFile(filepath.Join(dir, name), app.Encoded, 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", name, err)
		}
		index = append(index, indexEntry{
			File:       name,
			Package:    app.APK.Manifest.Package,
			SHA256:     app.SHA256,
			Category:   app.APK.Manifest.Category,
			Methods:    app.APK.Dex.MethodCount(),
			DexDate:    app.APK.DexDate,
			VTScanDate: app.APK.VTScanDate,
			X86:        app.APK.SupportsX86(),
		})
	}
	indexJSON, err := json.MarshalIndent(index, "", "  ")
	if err != nil {
		return fmt.Errorf("marshaling index: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "index.json"), indexJSON, 0o644); err != nil {
		return fmt.Errorf("writing index: %w", err)
	}
	if interrupted {
		fmt.Printf("Interrupted: generated %d of %d apks into %s (index covers the partial corpus).\n",
			len(index), apps, dir)
		return nil
	}
	fmt.Printf("Generated %d apks into %s.\n", apps, dir)
	return nil
}

func verifyCorpus(ctx context.Context, dir string) error {
	indexJSON, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		return fmt.Errorf("reading index: %w", err)
	}
	var index []indexEntry
	if err := json.Unmarshal(indexJSON, &index); err != nil {
		return fmt.Errorf("parsing index: %w", err)
	}
	for _, e := range index {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("verification interrupted: %w", err)
		}
		encoded, err := os.ReadFile(filepath.Join(dir, e.File))
		if err != nil {
			return fmt.Errorf("reading %s: %w", e.File, err)
		}
		if sum := apk.Checksum(encoded); sum != e.SHA256 {
			return fmt.Errorf("%s: checksum mismatch (index %s, file %s)", e.File, e.SHA256, sum)
		}
		decoded, err := apk.Decode(encoded)
		if err != nil {
			return fmt.Errorf("%s: %w", e.File, err)
		}
		if decoded.Manifest.Package != e.Package {
			return fmt.Errorf("%s: package mismatch (index %s, apk %s)", e.File, e.Package, decoded.Manifest.Package)
		}
		if decoded.Dex.MethodCount() != e.Methods {
			return fmt.Errorf("%s: method count mismatch (index %d, apk %d)", e.File, e.Methods, decoded.Dex.MethodCount())
		}
	}
	fmt.Printf("Verified %d apks in %s: all checksums and manifests match.\n", len(index), dir)
	return nil
}
