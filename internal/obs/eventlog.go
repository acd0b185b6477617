package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"

	"libspector/internal/journal"
)

// EventLog is a lossless bus tap that records the deterministic
// (Logged) event subset and serializes it in canonical order, so a
// same-seed campaign writes a byte-identical JSONL file regardless of
// worker interleaving or shard count.
//
// Canonical order, not arrival order: workers complete apps in racy
// order even under a virtual clock, and shards interleave arbitrarily.
// The log therefore stable-sorts by (app index, then campaign scope)
// before writing. Per-app relative order needs no repair — every app's
// events (started, retries, terminal) are published by the single
// goroutine that owns the app, so arrival order within one app IS
// publish order, and the stable sort preserves it.
type EventLog struct {
	mu     sync.Mutex
	events []Event
}

// NewEventLog creates an empty log.
func NewEventLog() *EventLog { return &EventLog{} }

// AttachTo registers the log as a tap on the bus.
func (l *EventLog) AttachTo(b *Bus) {
	b.Tap(l.record)
}

// record is the tap callback: keep deterministic event types, drop the
// rest. Runs inline on publisher goroutines; the append under a mutex
// is the entire cost.
func (l *EventLog) record(ev Event) {
	if !ev.Type.Logged() {
		return
	}
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// Len reports how many events have been recorded.
func (l *EventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Events returns the recorded events in canonical order (none for a nil
// log, like the rest of the obs package's nil receivers).
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	l.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		return eventLogClass(out[i]) < eventLogClass(out[j])
	})
	return out
}

// eventLogClass maps an event to its canonical sort key: app-scoped
// events ordered by app index, campaign-scoped events last. Per-key
// ties keep arrival order (stable sort).
func eventLogClass(ev Event) int {
	if ev.App >= 0 {
		return ev.App
	}
	return int(^uint(0) >> 1) // campaign scope sorts last
}

// WriteJSONL serializes the canonical event sequence, one JSON object
// per line.
func (l *EventLog) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range l.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile commits the JSONL log to path atomically and durably (temp
// sibling, fsync, rename, directory fsync), so a crash never leaves a
// torn log where a finished campaign's should be.
func (l *EventLog) WriteFile(path string) error {
	return journal.WriteFileAtomic(path, l.WriteJSONL)
}
