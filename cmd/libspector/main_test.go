package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestFullPipelineSmallCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-backed CLI test skipped in -short mode")
	}
	artifacts := t.TempDir()
	err := run(context.Background(), []string{
		"-apps", "10", "-seed", "9", "-events", "150",
		"-collector", "-store", "-artifacts", artifacts,
	})
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	// The artifact directory holds one run directory per analyzed app.
	entries, err := os.ReadDir(artifacts)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no artifacts persisted")
	}
	for _, e := range entries {
		for _, name := range []string{"app.apk", "capture.pcap", "reports.bin", "trace.txt", "meta.json"} {
			if _, err := os.Stat(filepath.Join(artifacts, e.Name(), name)); err != nil {
				t.Errorf("artifact %s/%s missing: %v", e.Name(), name, err)
			}
		}
	}
}

func TestBadFlagRejected(t *testing.T) {
	if err := run(context.Background(), []string{"-apps", "notanumber"}); err == nil {
		t.Error("bad flag should fail")
	}
}

func TestResumeRequiresJournal(t *testing.T) {
	if err := run(context.Background(), []string{"-resume"}); err == nil {
		t.Error("-resume without -journal should fail")
	}
}

func TestAuditRequiresArtifacts(t *testing.T) {
	if err := run(context.Background(), []string{"audit"}); err == nil {
		t.Error("audit without -artifacts should fail")
	}
}

// TestJournalResumeAuditCLI walks the operator loop end to end: journaled
// campaign, audit passes, evidence damaged, audit fails, resume repairs,
// audit passes again.
func TestJournalResumeAuditCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-backed CLI test skipped in -short mode")
	}
	dir := t.TempDir()
	artifacts := filepath.Join(dir, "artifacts")
	wal := filepath.Join(dir, "campaign.wal")
	campaign := []string{
		"-apps", "8", "-seed", "11", "-events", "120",
		"-artifacts", artifacts, "-journal", wal,
	}
	ctx := context.Background()
	if err := run(ctx, campaign); err != nil {
		t.Fatalf("campaign: %v", err)
	}
	audit := []string{"audit", "-artifacts", artifacts, "-journal", wal}
	if err := run(ctx, audit); err != nil {
		t.Fatalf("audit of a clean store: %v", err)
	}

	entries, err := os.ReadDir(artifacts)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no artifacts persisted: %v", err)
	}
	victim := filepath.Join(artifacts, entries[0].Name(), "app.apk")
	blob, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/3] ^= 0x08
	if err := os.WriteFile(victim, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, audit); err == nil {
		t.Fatal("audit missed a flipped apk bit")
	}

	if err := run(ctx, append(campaign, "-resume")); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if err := run(ctx, audit); err != nil {
		t.Errorf("audit after repairing resume: %v", err)
	}
}

// TestMain lets the test binary stand in for the libspector executable:
// a -shards parent re-executes os.Executable() per shard, which under
// `go test` is this binary, so children (marked through the inherited
// environment) run the CLI instead of the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("LIBSPECTOR_TEST_AS_CLI") != "" {
		if err := run(context.Background(), os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "libspector:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestProcessModeEventLogMatchesSingleProcess drives the real
// multi-process driver: `-shards 2` spawns two child processes of this
// binary, and the merged -events-out must equal the `-shards 1` file
// byte for byte.
func TestProcessModeEventLogMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-backed CLI test skipped in -short mode")
	}
	t.Setenv("LIBSPECTOR_TEST_AS_CLI", "1")
	dir := t.TempDir()
	base := []string{"-apps", "12", "-seed", "9", "-events", "120", "-workers", "4", "-collector", "-store"}
	one, two := filepath.Join(dir, "one.jsonl"), filepath.Join(dir, "two.jsonl")
	if err := run(context.Background(), append(base, "-events-out", one)); err != nil {
		t.Fatalf("-shards 1: %v", err)
	}
	err := run(context.Background(), append(base, "-shards", "2", "-events-out", two,
		"-journal", filepath.Join(dir, "campaign.wal"), "-artifacts", filepath.Join(dir, "evidence")))
	if err != nil {
		t.Fatalf("-shards 2: %v", err)
	}
	want, err := os.ReadFile(one)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(two)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !bytes.Equal(want, got) {
		t.Errorf("process-mode event log (%d bytes) differs from the single-process one (%d bytes)", len(got), len(want))
	}
	for i := 0; i < 2; i++ {
		if _, err := os.Stat(fmt.Sprintf("%s.shard-%03d", two, i)); err != nil {
			t.Errorf("child %d left no event log of its own: %v", i, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "campaign.wal.coordinator")); err != nil {
		t.Errorf("journaled process-mode campaign wrote no default coordinator WAL: %v", err)
	}
}

// TestShardChildWritesEventsBeforeOutcome pins DESIGN.md §12's ordering
// rule: a shard child writes its event log strictly before its outcome
// file, so a child that cannot write the log must leave NO outcome — a
// parent that found one would seal a shard whose log is missing.
func TestShardChildWritesEventsBeforeOutcome(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "shard.out")
	err := run(context.Background(), []string{
		"-apps", "6", "-seed", "9", "-events", "60", "-shards", "2", "-shard-index", "0", "-shard-out", out,
		"-events-out", filepath.Join(dir, "no-such-dir", "events.jsonl"),
	})
	if err == nil {
		t.Fatal("child with an unwritable -events-out succeeded")
	}
	if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
		t.Errorf("outcome file exists (stat err %v) although the event log could not be written: %v", statErr, err)
	}
}
