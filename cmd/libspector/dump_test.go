package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"libspector/internal/emulator"
	"libspector/internal/synth"
)

// writeTestCapture runs one app and persists its capture.
func writeTestCapture(t *testing.T) string {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Seed = 81
	cfg.NumApps = 2
	cfg.ARMOnlyRate = 0
	world, err := synth.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app, err := world.GenerateApp(0)
	if err != nil {
		t.Fatal(err)
	}
	opts := emulator.DefaultOptions(81)
	opts.Monkey.Events = 100
	arts, err := emulator.Run(emulator.Installation{Program: app.Program, APKSHA256: app.SHA256}, world.Resolver, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "capture.pcap")
	if err := os.WriteFile(path, arts.CaptureBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDumpModes(t *testing.T) {
	path := writeTestCapture(t)
	for _, mode := range []string{"flows", "packets", "dns"} {
		if err := run(context.Background(), []string{"dump", "-pcap", path, "-mode", mode, "-n", "5"}); err != nil {
			t.Errorf("mode %s: %v", mode, err)
		}
	}
}

func TestDumpValidation(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{"dump"}); err == nil {
		t.Error("missing -pcap should fail")
	}
	if err := run(ctx, []string{"dump", "-pcap", "/nonexistent.pcap"}); err == nil {
		t.Error("missing file should fail")
	}
	path := writeTestCapture(t)
	if err := run(ctx, []string{"dump", "-pcap", path, "-mode", "bogus"}); err == nil {
		t.Error("unknown mode should fail")
	}
}
