package libspector

import (
	"sort"
	"strings"

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
// analysis.fold event ("top libraries so far"). It is a Drain sink, so
// it runs on the draining goroutine only and needs no lock.
type foldTracker struct {
	tel     *obs.Telemetry
	shard   int
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

// Consume implements dispatch.Sink: it folds one completed run's flow
// volumes and publishes a ranking snapshot every foldPublishEvery runs.
func (t *foldTracker) Consume(ev dispatch.RunEvent) error {
	bus := t.tel.Bus()
	if ev.Kind != dispatch.EventRun || ev.Run == nil || !bus.Active() {
		return nil
	}
	for _, fl := range ev.Run.Flows {
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
	if t.runs++; t.runs%foldPublishEvery == 0 {
		bus.Publish(obs.Event{
			Type: obs.EvAnalysisFold, TS: t.tel.Now(), App: -1, Shard: t.shard,
			Libraries: rankedLibBytes(t.libs, foldTopN), Classes: rankedLibBytes(t.classes, 0),
		})
	}
	return nil
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
