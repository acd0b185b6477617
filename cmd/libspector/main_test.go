package main

import (
	"bytes"
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
	"libspector/internal/obs"
)

func TestFullPipelineSmallCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-backed CLI test skipped in -short mode")
	}
	artifacts := t.TempDir()
	err := run(context.Background(), []string{
		"-apps", "10", "-seed", "9", "-events", "150", "-artifacts", artifacts,
	})
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	// The artifact directory holds one sealed run file per analyzed app,
	// and nothing else.
	entries, err := os.ReadDir(artifacts)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no artifacts persisted")
	}
	for _, e := range entries {
		sha, ok := strings.CutSuffix(e.Name(), ".run")
		if !ok || e.IsDir() {
			t.Errorf("artifact directory holds %s, not a run file", e.Name())
			continue
		}
		data, err := os.ReadFile(filepath.Join(artifacts, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if run, err := dispatch.DecodeEvidence(data); err != nil || run.Meta.SHA256 != sha || len(run.Capture) == 0 {
			t.Errorf("run file %s: %v", e.Name(), err)
		}
	}
}

// TestFlaglessCampaignUsesCollector: a campaign given no transport flags
// still ships every supervisor report over UDP, so its telemetry snapshot
// counts the datagrams the collector received.
func TestFlaglessCampaignUsesCollector(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-backed CLI test skipped in -short mode")
	}
	out := captureStdout(t, func() error {
		return run(context.Background(), []string{"-apps", "6", "-seed", "9", "-events", "60"})
	})
	m := regexp.MustCompile(`(?m)^\s*collector_datagrams_received_total\s+(\d+)$`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no collector_datagrams_received_total line in the output:\n%s", out)
	}
	if n, _ := strconv.Atoi(m[1]); n == 0 {
		t.Error("a flagless campaign's collector received no datagrams")
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	read := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		read <- b
	}()
	runErr := fn()
	os.Stdout = orig
	_ = w.Close()
	out := <-read
	_ = r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return string(out)
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
	victim := filepath.Join(artifacts, entries[0].Name())
	blob, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/3] ^= 0x08
	if err := os.WriteFile(victim, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, audit); err == nil {
		t.Fatal("audit missed a flipped run-file bit")
	}

	if err := run(ctx, append(campaign, "-resume")); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if err := run(ctx, audit); err != nil {
		t.Errorf("audit after repairing resume: %v", err)
	}
}

// A failed run prints the program's name once, whether or not the error
// already starts with it.
func TestErrorLine(t *testing.T) {
	for _, tc := range []struct{ err, want string }{
		{"libspector: shard 0 outcome carries no spans", "libspector: shard 0 outcome carries no spans"},
		{"audit: 1 corrupt, 0 incomplete", "libspector: audit: 1 corrupt, 0 incomplete"},
	} {
		if got := errorLine(errors.New(tc.err)); got != tc.want {
			t.Errorf("errorLine(%q) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

// TestMain lets the test binary stand in for the libspector executable:
// a -shards parent re-executes os.Executable() per shard, which under
// `go test` is this binary, so children (marked through the inherited
// environment) run the CLI instead of the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("LIBSPECTOR_TEST_AS_CLI") != "" {
		if err := run(context.Background(), os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, errorLine(err))
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestProcessModeEventLogMatchesSingleProcess drives the real
// multi-process driver: `-shards 2` spawns two child processes of this
// binary, and the merged -events-out and -trace-out must equal the
// `-shards 1` files byte for byte.
func TestProcessModeEventLogMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-backed CLI test skipped in -short mode")
	}
	t.Setenv("LIBSPECTOR_TEST_AS_CLI", "1")
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	base := []string{"-apps", "12", "-seed", "9", "-events", "120", "-workers", "4"}
	if err := run(context.Background(), append(base, "-events-out", path("one.jsonl"), "-trace-out", path("one.trace"))); err != nil {
		t.Fatalf("-shards 1: %v", err)
	}
	err := run(context.Background(), append(base, "-shards", "2", "-events-out", path("two.jsonl"), "-trace-out", path("two.trace"),
		"-journal", path("campaign.wal"), "-artifacts", path("evidence")))
	if err != nil {
		t.Fatalf("-shards 2: %v", err)
	}
	for _, ext := range []string{"jsonl", "trace"} {
		want, err := os.ReadFile(path("one." + ext))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path("two." + ext))
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !bytes.Equal(want, got) {
			t.Errorf("process-mode %s (%d bytes) differs from the single-process one (%d bytes)", ext, len(got), len(want))
		}
	}
	if _, err := os.Stat(path("campaign.wal.coordinator")); err != nil {
		t.Errorf("journaled process-mode campaign wrote no default coordinator WAL: %v", err)
	}
}

// TestShardChildSealsEventsInOutcome pins DESIGN.md §12's child rule: a
// shard child's event log and spans travel in its outcome file, sealed
// with the rest of the outcome, and nowhere else — a child asked for an
// -events-out or -trace-out file of its own is refused before it runs.
func TestShardChildSealsEventsInOutcome(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "shard.out")
	child := []string{"-apps", "6", "-seed", "9", "-events", "60", "-shards", "2", "-shard-index", "1", "-shard-out", out}
	for _, flag := range []string{"-events-out", "-trace-out"} {
		if err := run(context.Background(), append(child, flag, filepath.Join(dir, "own.jsonl"))); err == nil {
			t.Fatalf("child with an %s of its own succeeded", flag)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Fatalf("refused child wrote an outcome (stat err %v)", err)
		}
	}
	if err := run(context.Background(), child); err != nil {
		t.Fatal(err)
	}
	o, err := dispatch.ReadShardOutcome(out)
	if err != nil {
		t.Fatal(err)
	}
	started, roots := 0, 0
	for _, ev := range o.Telemetry.Events {
		if ev.Type == obs.EvRunStarted {
			started++
		}
	}
	for _, s := range o.Telemetry.Spans {
		if s.Name == obs.SpanDispatch {
			roots++
		}
	}
	if o.Range.Len() == 0 || started != o.Range.Len() || roots != o.Range.Len() {
		t.Errorf("outcome over apps [%d, %d) carries %d run.started events and %d dispatch spans", o.Range.Lo, o.Range.Hi, started, roots)
	}
}
