package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTraceSpanTreeJSONL(t *testing.T) {
	epoch := time.Date(2019, time.July, 1, 0, 0, 0, 0, time.UTC)
	tr := NewTracer()
	root := tr.Trace("app-0001").Span(SpanDispatch, epoch)
	boot := root.Child(SpanEmulatorBoot, epoch)
	boot.End(epoch)
	run := root.Child(SpanMonkeyRun, epoch).AttrInt("events", 1000)
	run.End(epoch.Add(500 * time.Millisecond))
	root.End(epoch.Add(time.Second))

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	var first struct {
		Trace  string `json:"trace"`
		Span   int    `json:"span"`
		Parent int    `json:"parent"`
		Name   string `json:"name"`
		DurUS  int64  `json:"dur_us"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Trace != "app-0001" || first.Span != 1 || first.Parent != 0 || first.Name != SpanDispatch {
		t.Fatalf("unexpected root line: %+v", first)
	}
	if first.DurUS != 1_000_000 {
		t.Fatalf("root dur = %dus, want 1s", first.DurUS)
	}
	var third struct {
		Parent int               `json:"parent"`
		Attrs  map[string]string `json:"attrs"`
	}
	if err := json.Unmarshal([]byte(lines[2]), &third); err != nil {
		t.Fatal(err)
	}
	if third.Parent != 1 || third.Attrs["events"] != "1000" {
		t.Fatalf("unexpected monkey line: %+v", third)
	}
	if n := tr.SpanCount(); n != 3 {
		t.Fatalf("SpanCount = %d, want 3", n)
	}
}

// TestTraceOutputSortedByTraceID creates traces out of order and
// asserts the JSONL serialization orders them by id — the determinism
// rule for concurrent workers finishing in arbitrary order.
func TestTraceOutputSortedByTraceID(t *testing.T) {
	epoch := time.Unix(0, 0).UTC()
	serialize := func(order []string) string {
		tr := NewTracer()
		for _, id := range order {
			s := tr.Trace(id).Span(SpanDispatch, epoch)
			s.End(epoch)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := serialize([]string{"app-0003", "app-0001", "app-0002"})
	b := serialize([]string{"app-0002", "app-0003", "app-0001"})
	if a != b {
		t.Fatalf("trace output depends on creation order:\n%s\n%s", a, b)
	}
	if !strings.HasPrefix(a, `{"trace":"app-0001"`) {
		t.Fatalf("traces not sorted: %s", a)
	}
}

func TestSpanEndClamped(t *testing.T) {
	epoch := time.Unix(100, 0).UTC()
	tr := NewTracer()
	s := tr.Trace("x").Span("s", epoch)
	s.End(epoch.Add(-time.Second))
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"dur_us":0`) {
		t.Fatalf("backwards span not clamped: %s", buf.String())
	}
}

// TestBundleJoinReproducesTrace: two shard tracers' exported spans,
// sealed into bundles, merged in shard order and joined into an empty
// campaign tracer, serialize to the bytes one tracer holding every trace
// writes, whichever order the shards' traces were created in.
func TestBundleJoinReproducesTrace(t *testing.T) {
	epoch := time.Unix(0, 0).UTC()
	record := func(tr *Tracer, ids ...string) {
		for _, id := range ids {
			root := tr.Trace(id).Span(SpanDispatch, epoch).Attr("app", id)
			root.Child(SpanMonkeyRun, epoch).End(epoch.Add(time.Millisecond))
			root.End(epoch.Add(2 * time.Millisecond))
		}
	}
	whole := NewTracer()
	record(whole, "app-00000", "app-00001", "app-00002", "app-00003")
	var bundles []Bundle
	for _, ids := range [][]string{{"app-00001", "app-00000"}, {"app-00003", "app-00002"}} {
		tel := NewVirtual(nil)
		record(tel.Tracer(), ids...)
		tel.Counter(MFleetCompleted).Add(int64(len(ids)))
		bundles = append(bundles, Bundle{Snapshot: tel.Metrics().Snapshot(), Spans: tel.Tracer().Spans()})
	}
	merged, err := MergeBundles(bundles...)
	if err != nil {
		t.Fatal(err)
	}
	campaign := NewVirtual(nil)
	campaign.Join(merged)
	var want, got bytes.Buffer
	if err := whole.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if err := campaign.Tracer().WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() || campaign.Tracer().SpanCount() != 8 {
		t.Fatalf("joined trace (%d spans):\n%s\nwant:\n%s", campaign.Tracer().SpanCount(), got.String(), want.String())
	}
	if n := merged.Snapshot.Counters[MFleetCompleted]; n != 4 {
		t.Fatalf("merged snapshot counts %d completed runs, want 4", n)
	}
}
