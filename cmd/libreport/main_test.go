package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"libspector"
)

// TestEveryFigureRenders exercises every figure id end-to-end on a tiny
// corpus. One fleet run per figure keeps the test honest about the
// command's actual behavior.
func TestEveryFigureRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-backed CLI test skipped in -short mode")
	}
	for _, figure := range []string{"totals", "T1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10", "E1", "E2", "E4", "paper", "json"} {
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
// byte-equal to the single-process one. -csv after -merge-shards and
// after an in-process -shards 2 writes the single-process run's five CSV
// files, byte for byte.
func TestMergeShardsEventLog(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-backed CLI test skipped in -short mode")
	}
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	campaign := []string{"-apps", "12", "-seed", "42", "-workers", "2"}
	if err := run(append(campaign, "-events-out", path("single.jsonl"), "-trace-out", path("single.trace"), "-csv", path("single-csv"))); err != nil {
		t.Fatal(err)
	}
	if err := run(append(campaign, "-shards", "2", "-csv", path("sharded-csv"))); err != nil {
		t.Fatal(err)
	}
	for _, i := range []string{"0", "1"} {
		if err := run(append(campaign, "-shards", "2", "-shard-index", i, "-shard-out", path("s"+i))); err != nil {
			t.Fatalf("shard %s: %v", i, err)
		}
	}
	if err := run(append(campaign, "-merge-shards", path("s0")+","+path("s1"), "-events-out", path("merged.jsonl"), "-trace-out", path("merged.trace"), "-csv", path("merged-csv"))); err != nil {
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
	csvs, err := os.ReadDir(path("single-csv"))
	if err != nil || len(csvs) != 5 {
		t.Fatalf("single-process -csv wrote %d files (%v), want 5", len(csvs), err)
	}
	for _, f := range csvs {
		single, err := os.ReadFile(filepath.Join(path("single-csv"), f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, sharded := range []string{"sharded-csv", "merged-csv"} {
			if got, err := os.ReadFile(filepath.Join(path(sharded), f.Name())); err != nil || !bytes.Equal(got, single) {
				t.Errorf("%s/%s differs from the single-process file (err %v)", sharded, f.Name(), err)
			}
		}
	}
}

// TestReanalyzeShardedStore: -artifacts over a sharded campaign's base
// directory reads every shard's store, and reanalysis summarizes to the
// same bytes as over the unsharded campaign's store; a missing directory
// is refused, not created.
func TestReanalyzeShardedStore(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-backed CLI test skipped in -short mode")
	}
	dir := t.TempDir()
	cfg := libspector.DefaultConfig()
	cfg.Apps, cfg.Seed, cfg.MonkeyEvents, cfg.Workers = 40, 42, 120, 2
	var summaries [2]bytes.Buffer
	for i, shards := range []int{1, 2} {
		cfg.ArtifactDir = filepath.Join(dir, fmt.Sprint(shards))
		exp, err := libspector.NewExperiment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if shards == 1 {
			err = exp.Run()
		} else {
			_, err = exp.RunSharded(context.Background(), shards)
		}
		if err != nil {
			t.Fatal(err)
		}
		if exp, err = libspector.NewExperiment(cfg); err != nil {
			t.Fatal(err)
		}
		ag, err := reanalyze(exp, cfg.ArtifactDir)
		if err != nil {
			t.Fatal(err)
		}
		if err := ag.Summarize(25).WriteJSON(&summaries[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(summaries[0].Bytes(), summaries[1].Bytes()) {
		t.Errorf("reanalysis of the sharded store:\n%s\nof the unsharded one:\n%s", summaries[1].Bytes(), summaries[0].Bytes())
	}

	missing := filepath.Join(dir, "missing")
	if err := run([]string{"-apps", "4", "-artifacts", missing}); err == nil {
		t.Error("reanalysis of a missing store succeeded")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("reanalysis created the missing store (stat err %v)", err)
	}
}
