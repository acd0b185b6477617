package dispatch

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"libspector/internal/attribution"
	"libspector/internal/obs"
	"libspector/internal/resultstore"
)

// writeOutcomeFixture writes a small valid outcome file and returns its
// bytes plus the path.
func writeOutcomeFixture(t *testing.T) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "shard-000.out")
	out := &ShardOutcome{
		Index:      0,
		Range:      ShardRange{Lo: 0, Hi: 3},
		Accounting: Accounting{TotalApps: 3, Completed: 3, Attempts: 3},
		Telemetry:  obs.Bundle{Snapshot: coordSnapshot(3)},
		Partial:    []byte{0x01, 0x02},
		Records:    []byte{0x03, 0x04, 0x05},
	}
	if err := WriteShardOutcome(path, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestReadShardOutcomeRejectsDamage pins the strict framing: truncation
// anywhere, trailing bytes after the CRC, and bit rot must all fail with
// ErrCorruptOutcome — never decode into a half-outcome the coordinator
// would merge.
func TestReadShardOutcomeRejectsDamage(t *testing.T) {
	path, data := writeOutcomeFixture(t)

	if out, err := ReadShardOutcome(path); err != nil {
		t.Fatal(err)
	} else if string(out.Records) != "\x03\x04\x05" {
		t.Fatalf("records did not round-trip: %x", out.Records)
	}

	check := func(name string, mutant []byte) {
		t.Helper()
		p := filepath.Join(t.TempDir(), "mutant.out")
		if err := os.WriteFile(p, mutant, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadShardOutcome(p)
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if !errors.Is(err, ErrCorruptOutcome) {
			t.Fatalf("%s: untyped error %v", name, err)
		}
	}

	// Every truncation length, including cutting exactly into the CRC.
	for n := 0; n < len(data); n++ {
		check("truncate", data[:n])
	}
	// Trailing bytes after a valid frame: JSON decoders shrug these off,
	// the frame must not.
	check("trailing-zero", append(append([]byte(nil), data...), 0x00))
	check("trailing-json", append(append([]byte(nil), data...), []byte("{}")...))
	// Bit rot in magic, body, and CRC regions.
	for _, off := range []int{0, len(data) / 2, len(data) - 1} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		check("bitflip", mut)
	}
}

// TestRecordSinkFlattensRuns checks the sink turns run events into
// canonical records and refuses events after Seal.
func TestRecordSinkFlattensRuns(t *testing.T) {
	mkRun := func(sha, pkg string, flows ...*attribution.Flow) *attribution.RunResult {
		return &attribution.RunResult{AppSHA: sha, AppPackage: pkg, Flows: flows}
	}
	s := NewRecordSink()
	// Completion order is scrambled (app 4 before app 1); Seal must
	// restore canonical (AppIndex, FlowIndex) order.
	if err := s.Consume(RunEvent{Kind: EventRun, AppIndex: 4, Run: mkRun("sha-4", "com.app.d",
		&attribution.Flow{OriginLibrary: "lib.a", Domain: "a.example.com", BytesSent: 10, BytesReceived: 20, PacketsSent: 1, PacketsReceived: 2},
	)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Consume(RunEvent{Kind: EventRun, AppIndex: 1, Run: mkRun("sha-1", "com.app.a",
		&attribution.Flow{OriginLibrary: "lib.b", Domain: "b.example.com", BytesSent: 5},
		&attribution.Flow{OriginLibrary: "lib.c", Domain: "c.example.com", BytesReceived: 7},
	)}); err != nil {
		t.Fatal(err)
	}
	// Non-run events are ignored.
	if err := s.Consume(RunEvent{Kind: EventSummary}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d, want 3", s.Len())
	}
	seg, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := resultstore.DecodeSegment(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("decoded %d records", len(recs))
	}
	want := []struct {
		app, flow int
		sha, lib  string
	}{
		{1, 0, "sha-1", "lib.b"},
		{1, 1, "sha-1", "lib.c"},
		{4, 0, "sha-4", "lib.a"},
	}
	for i, w := range want {
		r := recs[i]
		if r.AppIndex != w.app || r.FlowIndex != w.flow || r.AppSHA != w.sha || r.Origin != w.lib {
			t.Fatalf("record %d = %+v, want %+v", i, r, w)
		}
	}
	if recs[2].BytesSent != 10 || recs[2].BytesReceived != 20 || recs[2].PacketsSent != 1 || recs[2].PacketsRecv != 2 {
		t.Fatalf("counters lost: %+v", recs[2])
	}
	if err := s.Consume(RunEvent{Kind: EventRun, AppIndex: 9, Run: mkRun("sha-9", "p")}); err == nil {
		t.Fatal("sealed sink accepted an event")
	}
}
