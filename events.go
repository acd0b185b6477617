package libspector

import (
	"sort"
	"strings"
	"sync"

	"libspector/internal/attribution"
	"libspector/internal/corpus"
	"libspector/internal/dispatch"
	"libspector/internal/obs"
)

// Facade-side event-plane feeds: the analysis-fold ranking tracker and
// the campaign terminal event. Everything here is gated on the bus
// being live, so an uninstrumented run pays one atomic load per fold.

const (
	// foldPublishEvery is the fold cadence for analysis.fold events: a
	// ranking snapshot every N folded runs, not every run.
	foldPublishEvery = 8
	// foldTopN bounds the libraries ranking carried per event.
	foldTopN = 12
)

// foldTracker accumulates per-library and per-origin-class byte totals
// across the campaign's folds and periodically publishes an
// analysis.fold event ("top libraries so far"). It is shared by all of
// a fleet's workers; observe takes its own lock, but only after the
// Active gate, so the hot path never touches it when nobody listens.
type foldTracker struct {
	tel   *obs.Telemetry
	shard int

	mu      sync.Mutex
	libs    map[string]int64
	classes map[string]int64
	runs    int
}

func newFoldTracker(tel *obs.Telemetry, shard int) *foldTracker {
	return &foldTracker{
		tel:     tel,
		shard:   shard,
		libs:    make(map[string]int64),
		classes: make(map[string]int64),
	}
}

// observe folds one completed run's flow volumes and publishes a
// ranking snapshot every foldPublishEvery runs.
func (t *foldTracker) observe(run *attribution.RunResult) {
	if t == nil {
		return
	}
	bus := t.tel.Bus()
	if !bus.Active() {
		return
	}
	t.mu.Lock()
	for _, fl := range run.Flows {
		name := fl.OriginLibrary
		if name == "" {
			continue
		}
		if strings.HasPrefix(name, corpus.BuiltinOriginPrefix) {
			t.classes[strings.TrimPrefix(name, corpus.BuiltinOriginPrefix)] += fl.TotalBytes()
		} else {
			t.libs[name] += fl.TotalBytes()
		}
	}
	t.runs++
	publish := t.runs%foldPublishEvery == 0
	var libs, classes []obs.LibBytes
	if publish {
		libs = rankedLibBytes(t.libs, foldTopN)
		classes = rankedLibBytes(t.classes, 0)
	}
	t.mu.Unlock()
	if publish {
		bus.Publish(obs.Event{
			Type: obs.EvAnalysisFold, TS: t.tel.Now(), App: -1, Shard: t.shard,
			Libraries: libs, Classes: classes,
		})
	}
}

// rankedLibBytes sorts a byte-total map descending (name ascending on
// ties, so the ranking is deterministic) and truncates to topN (0 = all).
func rankedLibBytes(m map[string]int64, topN int) []obs.LibBytes {
	out := make([]obs.LibBytes, 0, len(m))
	for name, b := range m {
		out = append(out, obs.LibBytes{Name: name, Bytes: b})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Name < out[j].Name
	})
	if topN > 0 && len(out) > topN {
		out = out[:topN]
	}
	return out
}

// publishCampaignDone emits the campaign's terminal event. It is part
// of the deterministic JSONL log: the counts come from the merged
// Accounting ledger, which is shard-count invariant, so the event's
// bytes are too.
func publishCampaignDone(tel *obs.Telemetry, acct dispatch.Accounting) {
	bus := tel.Bus()
	if !bus.Active() {
		return
	}
	bus.Publish(obs.Event{
		Type: obs.EvCampaignDone, TS: tel.Now(), App: -1, Shard: -1,
		Counts: acct.EventCounts(),
	})
}
