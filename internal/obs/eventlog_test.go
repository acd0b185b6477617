package obs

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestEventLogWriteAtomicity is the write-atomicity pattern every other
// campaign output is held to (resultstore.TestWriteAtomicity): a crashed
// writer's leftover temp file never shadows or confuses a commit, a
// commit leaves no temp of its own behind, and a rewrite never tears the
// committed file — a reader holding the old file open keeps reading the
// complete old log, because the new one arrives by rename, not by
// truncating in place.
func TestEventLogWriteAtomicity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	log := NewEventLog()
	ts := time.Unix(0, 0).UTC()
	for app := 0; app < 40; app++ {
		log.record(Event{Type: EvRunStarted, TS: ts, App: app, Shard: -1})
	}
	if err := log.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := log.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, want.Bytes()) {
		t.Fatal("committed file differs from the log's JSONL serialization")
	}

	dead := filepath.Join(dir, filepath.Base(path)+".tmp-dead")
	if err := os.WriteFile(dead, first[:len(first)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	log.record(Event{Type: EvCampaignDone, TS: ts, App: -1, Shard: -1})
	if err := log.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if held, err := io.ReadAll(old); err != nil || !bytes.Equal(held, first) {
		t.Errorf("a reader of the committed log saw %d bytes (err %v), want the intact %d-byte file: the rewrite tore it in place", len(held), err, len(first))
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(second, first) || !bytes.Contains(second[len(first):], []byte(EvCampaignDone)) {
		t.Error("rewritten log is not the old log plus campaign.done")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if n := e.Name(); n != filepath.Base(path) && n != filepath.Base(dead) {
			t.Errorf("WriteFile left %s behind", n)
		}
	}

	// A log that cannot be committed reports it and leaves no temp file.
	if err := log.WriteFile(filepath.Join(dir, "missing", "events.jsonl")); err == nil {
		t.Error("writing into a missing directory succeeded")
	}
}
