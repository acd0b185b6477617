package main

import (
	"path/filepath"
	"testing"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Trace: "app-00000", ID: 1, Parent: 0, Name: "app", Start: 0, End: 100, Allocs: 50, Bytes: 500},
		// Two overlapping children cover [10,50) once, not 20+30.
		{Trace: "app-00000", ID: 2, Parent: 1, Name: "a", Start: 10, End: 30, Allocs: 10, Bytes: 100},
		{Trace: "app-00000", ID: 3, Parent: 1, Name: "b", Start: 20, End: 50, Allocs: 15, Bytes: 150},
		// A child running past its parent is clipped to the parent.
		{Trace: "app-00000", ID: 4, Parent: 1, Name: "a", Start: 90, End: 120, Allocs: 5, Bytes: 50},
		// A grandchild is subtracted from its parent only.
		{Trace: "app-00000", ID: 5, Parent: 3, Name: "c", Start: 25, End: 35, Allocs: 4, Bytes: 40},
	}
	got := selfTotals(spans)
	want := map[string]layerTotal{
		"app": {SelfNS: 100 - 40 - 10, Allocs: 50 - 10 - 15 - 5, Bytes: 500 - 100 - 150 - 50, Spans: 1},
		"a":   {SelfNS: 20 + 30, Allocs: 15, Bytes: 150, Spans: 2},
		"b":   {SelfNS: 30 - 10, Allocs: 15 - 4, Bytes: 150 - 40, Spans: 1},
		"c":   {SelfNS: 10, Allocs: 4, Bytes: 40, Spans: 1},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
	var total int64
	for _, g := range got {
		total += g.SelfNS
	}
	// Self times tile the root, plus the 20 ns a child overran it, plus the
	// 10 ns where two siblings overlap and each keeps its own time.
	if total != 100+20+10 {
		t.Errorf("self times sum to %d, want 130", total)
	}
}

func TestRecorderLinksSpansOfOneApp(t *testing.T) {
	r := newRecorder(4)
	app := r.begin("app-00007", "app", 0)
	child := r.begin("app-00007", "synth.generate", app.id)
	child.end()
	app.end()
	if len(r.spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(r.spans))
	}
	root, leaf := r.spans[0], r.spans[1]
	if root.Trace != leaf.Trace || leaf.Parent != root.ID || root.Parent != 0 {
		t.Errorf("spans not linked: %+v / %+v", root, leaf)
	}
	if leaf.Start < root.Start || leaf.End > root.End || leaf.End < leaf.Start {
		t.Errorf("child [%d,%d] outside parent [%d,%d]", leaf.Start, leaf.End, root.Start, root.End)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := r.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
}
