package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Tracer collects per-run traces. Trace lookup is safe for concurrent
// use; each Trace is single-owner (one worker at a time — handoffs
// through the event channel establish the ordering). Spans are buffered
// in memory and serialized on demand in sorted order, so a same-seed
// virtual-clock fleet writes a byte-identical trace file regardless of
// worker interleaving.
type Tracer struct {
	mu     sync.Mutex
	traces map[string]*Trace
}

// NewTracer creates an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{traces: make(map[string]*Trace)}
}

// Trace returns the trace with the given id, creating it on first use.
// Nil tracers return a nil (inert) trace.
func (t *Tracer) Trace(id string) *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := t.traces[id]
	if tr == nil {
		tr = &Trace{id: id}
		t.traces[id] = tr
	}
	return tr
}

// Trace is one run's span tree. It is NOT safe for concurrent use: one
// goroutine owns it at a time (the dispatch worker during the run, the
// consuming goroutine for the analysis fold afterwards — the stream's
// event channel orders the handoff).
type Trace struct {
	id     string
	nextID int
	spans  []*Span
	joined []SpanLine
}

// Span is one stage of a run. IDs are 1-based and sequential within
// the trace; a root span has Parent 0.
type Span struct {
	trace  *Trace
	id     int
	parent int
	name   string
	start  time.Time
	end    time.Time
	attrs  map[string]string
}

func (tr *Trace) newSpan(name string, parent int, start time.Time) *Span {
	if tr == nil {
		return nil
	}
	tr.nextID++
	s := &Span{trace: tr, id: tr.nextID, parent: parent, name: name, start: start, end: start}
	tr.spans = append(tr.spans, s)
	return s
}

// Span opens a root span at the given start time.
func (tr *Trace) Span(name string, start time.Time) *Span {
	return tr.newSpan(name, 0, start)
}

// Child opens a child span of s at the given start time.
func (s *Span) Child(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	return s.trace.newSpan(name, s.id, start)
}

// End closes the span at the given time (clamped to the start — spans
// never run backwards).
func (s *Span) End(end time.Time) {
	if s == nil {
		return
	}
	if end.Before(s.start) {
		end = s.start
	}
	s.end = end
}

// Attr attaches one key/value annotation and returns the span for
// chaining.
func (s *Span) Attr(key, value string) *Span {
	if s == nil {
		return nil
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string)
	}
	s.attrs[key] = value
	return s
}

// AttrInt attaches an integer annotation.
func (s *Span) AttrInt(key string, value int64) *Span {
	return s.Attr(key, fmt.Sprintf("%d", value))
}

// SpanLine is one exported span, in the JSONL form -trace-out writes and
// a shard outcome carries. Field order is the struct order; attrs
// marshal with sorted keys — both deterministic.
type SpanLine struct {
	Trace  string            `json:"trace"`
	Span   int               `json:"span"`
	Parent int               `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Start  string            `json:"start"`
	End    string            `json:"end"`
	DurUS  int64             `json:"dur_us"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// ReplayStable reports whether the span is deterministic under replay
// and takeover; it is the trace's rule, as EventType.Logged is the
// event log's. A same-seed campaign's trace is deterministic app by app,
// but a resumed or taken-over shard replays each app its journal holds
// instead of running it: the app's trace is then a dispatch root marked
// resume=replay, the attribution redone over the stored evidence and the
// analysis fold, with none of the emulator stages; an app whose evidence
// fails the replay's checks is requeued under one more root marked
// outcome=requeue, then runs live. So an app's trace after a stop is
// either its uninterrupted trace, byte for byte, or a replay trace, which
// agrees with it only on the stable spans: the app's dispatch root and
// analysis fold, by name and attributes but for the resume mark.
func (s SpanLine) ReplayStable() bool {
	return s.Name == SpanAnalysisFold || s.Name == SpanDispatch && s.Attrs["outcome"] != "requeue"
}

// Spans exports every trace in canonical order: traces sorted by id,
// each trace's joined spans (Join) and then its own in creation order.
// It is the tracer's one exported representation — WriteJSONL encodes
// it, a shard incarnation seals it. Callers must not race it with live
// span creation: export after the fleet drains.
func (t *Tracer) Spans() []SpanLine {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]string, 0, len(t.traces))
	for id := range t.traces {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out []SpanLine
	for _, id := range ids {
		tr := t.traces[id]
		out = append(out, tr.joined...)
		for _, s := range tr.spans {
			out = append(out, SpanLine{
				Trace:  tr.id,
				Span:   s.id,
				Parent: s.parent,
				Name:   s.name,
				Start:  s.start.UTC().Format(time.RFC3339Nano),
				End:    s.end.UTC().Format(time.RFC3339Nano),
				DurUS:  s.end.Sub(s.start).Microseconds(),
				Attrs:  s.attrs,
			})
		}
	}
	return out
}

// Join adds spans another tracer exported — a shard incarnation's — to
// their traces here, after any already joined, so they export again as
// they were exported.
func (t *Tracer) Join(spans []SpanLine) {
	if t == nil {
		return
	}
	for _, s := range spans {
		tr := t.Trace(s.Trace)
		tr.joined = append(tr.joined, s)
	}
}

// WriteJSONL serializes Spans, one JSON object per span line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("obs: encoding span %s/%d: %w", s.Trace, s.Span, err)
		}
	}
	return bw.Flush()
}

// WriteFile writes the JSONL trace to path (0644, truncating).
func (t *Tracer) WriteFile(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: creating trace file: %w", err)
	}
	if err := t.WriteJSONL(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// SpanCount reports the total number of spans recorded so far.
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, tr := range t.traces {
		n += len(tr.joined) + len(tr.spans)
	}
	return n
}
