package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"libspector/internal/dispatch"
	"libspector/internal/emulator"
	"libspector/internal/synth"
)

// testRun runs one app under a short monkey session.
func testRun(t *testing.T) (*synth.App, *emulator.Artifacts) {
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
	return app, arts
}

// writeTestCapture runs one app and persists its capture.
func writeTestCapture(t *testing.T) string {
	t.Helper()
	_, arts := testRun(t)
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

// The packets mode prints each record's wire length, captured length and
// wire payload, and marks the records whose payload the capture snapped:
// every data segment after its direction's first.
func TestDumpPacketsShowsSnappedRecords(t *testing.T) {
	path := writeTestCapture(t)
	out, err := captureStdout(func() error {
		return run(context.Background(), []string{"dump", "-pcap", path, "-mode", "packets"})
	})
	if err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`^\S+ (TCP|UDP) +(\S+) +len=(\d+) +caplen=(\d+) +payload=(\d+) .*?( snapped)?$`)
	var snapped, whole int
	for _, l := range strings.Split(strings.TrimSpace(out), "\n") {
		m := line.FindStringSubmatch(l)
		if m == nil {
			continue
		}
		wire, capLen, payload := atoi(t, m[3]), atoi(t, m[4]), atoi(t, m[5])
		switch {
		case m[6] != "":
			if m[1] != "TCP" || capLen != 40 || payload != wire-40 || payload == 0 {
				t.Fatalf("snapped record printed as %q", l)
			}
			snapped++
		case capLen != wire:
			t.Fatalf("short record not marked snapped: %q", l)
		case payload > 0:
			whole++
		}
	}
	if snapped == 0 || whole == 0 {
		t.Fatalf("%d snapped and %d whole payload-bearing records in:\n%s", snapped, whole, out)
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
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

// A raw pcap torn inside a record fails in every mode with the reader's
// error.
func TestDumpTornCapture(t *testing.T) {
	path := writeTestCapture(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every record holds at least an IPv4 header, so five bytes short of
	// the end is inside the last record's packet data.
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"flows", "packets", "dns"} {
		_, err := captureStdout(func() error {
			return run(context.Background(), []string{"dump", "-pcap", path, "-mode", mode})
		})
		if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(fmt.Sprint(err), "pcap: reading packet data: unexpected EOF") {
			t.Errorf("mode %s: %v, want the reader's torn-record error", mode, err)
		}
	}
}

// dump reads the capture inside a stored run file as it reads a pcap,
// and refuses a run file whose seal no longer matches its bytes.
func TestDumpRunFile(t *testing.T) {
	app, arts := testRun(t)
	store, err := dispatch.NewArtifactStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta := dispatch.RunMeta{Package: app.APK.Manifest.Package, SHA256: app.SHA256}
	if err := store.Save(meta, app.Encoded, arts.CaptureBytes, arts.RawReports, arts.Trace); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(store.Dir(), app.SHA256+".run")
	ctx := context.Background()
	for _, mode := range []string{"flows", "packets", "dns"} {
		if err := run(ctx, []string{"dump", "-pcap", path, "-mode", mode, "-n", "5"}); err != nil {
			t.Errorf("mode %s: %v", mode, err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, []string{"dump", "-pcap", path}); !errors.Is(err, dispatch.ErrCorruptArtifact) {
		t.Errorf("dump of a flipped run file: %v, want ErrCorruptArtifact", err)
	}
}
