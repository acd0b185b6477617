package obs

// Bundle is one shard incarnation's telemetry, sealed once when the
// incarnation finishes: its metrics snapshot, its deterministic event
// log and its spans, both in canonical order. A shard outcome carries
// it, so the three reach the campaign together, or die together with an
// incarnation that never sealed; the campaign merges its shards'
// bundles once (MergeBundles) and joins the merged bundle into its own
// telemetry once (Telemetry.Join).
type Bundle struct {
	Snapshot Snapshot   `json:"snapshot"`
	Events   []Event    `json:"events,omitempty"`
	Spans    []SpanLine `json:"spans,omitempty"`
}

// MergeBundles folds shard bundles, passed in shard order, into the
// campaign's: snapshots summed (MergeSnapshots), events and spans
// concatenated. Shard ranges ascend, so the concatenations stay in
// canonical order.
func MergeBundles(bundles ...Bundle) (Bundle, error) {
	var out Bundle
	snaps := make([]Snapshot, 0, len(bundles))
	for _, b := range bundles {
		snaps = append(snaps, b.Snapshot)
		out.Events = append(out.Events, b.Events...)
		out.Spans = append(out.Spans, b.Spans...)
	}
	var err error
	out.Snapshot, err = MergeSnapshots(snaps...)
	return out, err
}

// Join is the one place a merged bundle enters a campaign's telemetry:
// its events reach the bus's taps alone (Bus.Record) — subscribers saw
// them live through a relay, if at all — and its spans join the tracer.
// The snapshot stays the caller's to report: the campaign's registry
// holds the coordinator's own series. No-op on nil telemetry.
func (t *Telemetry) Join(b Bundle) {
	for _, ev := range b.Events {
		t.Bus().Record(ev)
	}
	t.Tracer().Join(b.Spans)
}
