package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (the program under test carries no benchmark spans). Spans of one
// app share the trace id dispatch.TraceID(i); Parent is the span that
// caused this one, 0 for a root.
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder was made.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Allocs and Bytes are the heap allocations of the whole process
	// between Start and End; the staged pass runs on one goroutine, so
	// they are the span's own (and its children's).
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"alloc_bytes"`
}

// recorder keeps spans in memory until the run ends. It is used from one
// goroutine.
type recorder struct {
	epoch time.Time
	spans []span
}

// newRecorder sizes the span buffer up front so that recording a span
// allocates nothing inside the spans being measured.
func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// open is a started span; end completes it.
type open struct {
	r             *recorder
	id            int
	allocs, bytes uint64
}

// begin starts a span under the span with id parent (0 for a root). The
// heap counters are read last, right before the caller's work begins.
func (r *recorder) begin(trace, name string, parent int) open {
	r.spans = append(r.spans, span{Trace: trace, ID: len(r.spans) + 1, Parent: parent, Name: name})
	o := open{r: r, id: len(r.spans)}
	o.allocs, o.bytes = readHeap()
	r.spans[o.id-1].Start = int64(time.Since(r.epoch))
	return o
}

func (o open) end() {
	s := &o.r.spans[o.id-1]
	s.End = int64(time.Since(o.r.epoch))
	allocs, bytes := readHeap()
	s.Allocs, s.Bytes = allocs-o.allocs, bytes-o.bytes
}

// layerTotal is one layer's sum over the spans that carry its name.
type layerTotal struct {
	SelfNS int64
	Allocs uint64
	Bytes  uint64
	Spans  int
}

// selfTotals folds spans into per-name totals. A span's self time is its
// duration minus the part of that interval its direct children cover
// (overlapping children are not subtracted twice); its own allocations are
// its total minus its children's.
func selfTotals(spans []span) map[string]layerTotal {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTotal{}
	for _, s := range spans {
		t := out[s.Name]
		t.Spans++
		t.SelfNS += (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
		allocs, bytes := s.Allocs, s.Bytes
		for _, c := range children[s.ID] {
			allocs -= min(allocs, c.Allocs)
			bytes -= min(bytes, c.Bytes)
		}
		t.Allocs += allocs
		t.Bytes += bytes
		out[s.Name] = t
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to [lo, hi].
func covered(lo, hi int64, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, lo
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		total += x[1] - max(x[0], end)
		end = x[1]
	}
	return total
}

// writeJSONL writes the spans, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
