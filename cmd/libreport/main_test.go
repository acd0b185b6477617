package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestEveryFigureRenders exercises every figure id end-to-end on a tiny
// corpus. One fleet run per figure keeps the test honest about the
// command's actual behavior.
func TestEveryFigureRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-backed CLI test skipped in -short mode")
	}
	for _, figure := range []string{"totals", "T1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10", "E1", "E2", "E4", "json"} {
		figure := figure
		t.Run(figure, func(t *testing.T) {
			if err := run([]string{"-figure", figure, "-apps", "8", "-seed", "5"}); err != nil {
				t.Fatalf("figure %s: %v", figure, err)
			}
		})
	}
}

func TestUnknownFigureRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-backed CLI test skipped in -short mode")
	}
	if err := run([]string{"-figure", "F99", "-apps", "4"}); err == nil {
		t.Error("unknown figure id should fail")
	}
}

// TestMergeShardsEventLog: shard outcomes written by -shard-index
// children carry their shards' event logs and spans, so -merge-shards
// -events-out -trace-out writes the whole campaign's log and trace, each
// byte-equal to the single-process one.
func TestMergeShardsEventLog(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-backed CLI test skipped in -short mode")
	}
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	campaign := []string{"-apps", "12", "-seed", "42", "-workers", "2"}
	if err := run(append(campaign, "-events-out", path("single.jsonl"), "-trace-out", path("single.trace"))); err != nil {
		t.Fatal(err)
	}
	for _, i := range []string{"0", "1"} {
		if err := run(append(campaign, "-shards", "2", "-shard-index", i, "-shard-out", path("s"+i))); err != nil {
			t.Fatalf("shard %s: %v", i, err)
		}
	}
	if err := run(append(campaign, "-merge-shards", path("s0")+","+path("s1"), "-events-out", path("merged.jsonl"), "-trace-out", path("merged.trace"))); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"jsonl", "trace"} {
		single, err := os.ReadFile(path("single." + name))
		if err != nil {
			t.Fatal(err)
		}
		merged, err := os.ReadFile(path("merged." + name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(merged, single) {
			t.Errorf("merged %s holds %d lines, the single-process one %d", name, bytes.Count(merged, []byte("\n")), bytes.Count(single, []byte("\n")))
		}
	}
}
