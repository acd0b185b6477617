package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// The event plane.
//
// Bus is a typed, bounded pub/sub fan-out for campaign lifecycle events:
// dispatch publishes run outcomes, the coordinator publishes shard
// liveness, the collector publishes totals, and consumers (the SSE ops
// endpoint, the JSONL event log) subscribe without ever being able to
// slow the publishers down. Two delivery modes exist:
//
//   - Subscriptions hold a bounded per-subscriber ring. When a consumer
//     falls behind, the OLDEST buffered event is dropped and the drop is
//     counted — per subscription and, lazily, in the registry under
//     MBusDropped. Publish never blocks and never allocates beyond the
//     ring slot.
//   - Taps are synchronous and lossless: the callback runs inline on the
//     publisher's goroutine. They exist for the deterministic event log,
//     which must not drop; tap callbacks must be fast and must not block.
//
// Hot-path discipline (DESIGN.md §11): call sites gate event
// construction on Active(), a single atomic load, so a fleet with no
// ops server and no -events-out sink pays one predicted branch per
// publish point. The MBusDropped registry counter is registered lazily
// on the first actual drop, never eagerly — an idle bus leaves the
// registry snapshot byte-identical to a busless run, which the shard
// snapshot-invariance tests depend on.

// EventType names one event class. The string is the wire name used in
// SSE frames, the JSONL log, and the /events?types= filter.
type EventType string

// The event taxonomy (DESIGN.md §11). Three determinism classes:
//
//   - logged: virtual-clock-stamped, shard-invariant, recorded by
//     EventLog. Same seed + same config => byte-identical JSONL for any
//     shard count.
//   - deterministic, topology-bound: virtual-clock-stamped but shaped by
//     the shard layout (ranges, per-shard summaries), so they stream but
//     are not logged — logging them would break cross-shard-count
//     byte-identity.
//   - wall-only: timing/liveness measurements with no deterministic
//     meaning; streamed for operators, never logged.
const (
	// Logged (deterministic, shard-invariant).
	EvRunStarted     EventType = "run.started"
	EvRunRetry       EventType = "run.retry"
	EvRunCompleted   EventType = "run.completed"
	EvRunSkipped     EventType = "run.skipped"
	EvRunFailed      EventType = "run.failed"
	EvRunQuarantined EventType = "run.quarantined"
	EvCampaignDone   EventType = "campaign.done"

	// Deterministic resume marker. Streamed so operators can watch a
	// resume replay the journal, but NOT logged: a resumed campaign's
	// event log must stay byte-identical to the uninterrupted run's, and
	// the uninterrupted run never replays. The replayed app's original
	// run.* lifecycle events are republished from the journal instead.
	EvRunReplayed EventType = "run.replayed"

	// Deterministic but topology-bound (streamed, not logged).
	EvShardStarted  EventType = "shard.started"
	EvShardDone     EventType = "shard.done"
	EvMergeProgress EventType = "merge.progress"
	EvFleetSummary  EventType = "fleet.summary"
	EvAnalysisFold  EventType = "analysis.fold"

	// Wall-only (streamed, never logged, suppressed from nothing — they
	// simply carry wall timestamps and machine-dependent readings).
	EvFleetUtilization EventType = "fleet.utilization"
	EvCollectorTotals  EventType = "collector.totals"
	EvShardHealthy     EventType = "shard.healthy"
	EvShardDead        EventType = "shard.dead"
	EvShardStalled     EventType = "shard.stalled"
	EvShardTakeover    EventType = "shard.takeover"
)

// Logged reports whether events of this type belong in the
// deterministic JSONL event log (see EventLog).
func (t EventType) Logged() bool {
	switch t {
	case EvRunStarted, EvRunRetry, EvRunCompleted, EvRunSkipped,
		EvRunFailed, EvRunQuarantined, EvCampaignDone:
		return true
	}
	return false
}

// WallOnly reports whether events of this type carry machine-dependent
// readings and must only be published from wall-clock telemetry.
func (t EventType) WallOnly() bool {
	switch t {
	case EvFleetUtilization, EvCollectorTotals, EvShardHealthy,
		EvShardDead, EvShardStalled, EvShardTakeover:
		return true
	}
	return false
}

// LibBytes is one (name, bytes) ranking row — top libraries, bytes per
// origin class — carried by analysis.fold events.
type LibBytes struct {
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
}

// EventCounts is the outcome ledger carried by summary-class events
// (fleet.summary, campaign.done, shard.done).
type EventCounts struct {
	Apps        int64 `json:"apps"`
	Completed   int64 `json:"completed"`
	Skipped     int64 `json:"skipped"`
	Failed      int64 `json:"failed"`
	Quarantined int64 `json:"quarantined"`
	Attempts    int64 `json:"attempts,omitempty"`
	Retried     int64 `json:"retried,omitempty"`
	Replayed    int64 `json:"replayed,omitempty"`
}

// Event is one bus frame. App and Shard are always serialized (-1 means
// "not scoped to an app/shard" — index 0 is a valid scope, so omitempty
// would be ambiguous); the payload fields are per-type and omitted when
// empty. TS comes from the publisher's Telemetry.Now: a fixed epoch in
// virtual mode, so logged events serialize byte-identically across
// same-seed runs.
type Event struct {
	Seq   uint64    `json:"-"`
	Type  EventType `json:"type"`
	TS    time.Time `json:"ts"`
	App   int       `json:"app"`
	Shard int       `json:"shard"`

	Attempt   int    `json:"attempt,omitempty"`
	Lo        int    `json:"lo,omitempty"`
	Hi        int    `json:"hi,omitempty"`
	Package   string `json:"package,omitempty"`
	Error     string `json:"error,omitempty"`
	Flows     int64  `json:"flows,omitempty"`
	VirtualMS int64  `json:"virtual_ms,omitempty"`
	TCPBytes  int64  `json:"tcp_bytes,omitempty"`
	UDPBytes  int64  `json:"udp_bytes,omitempty"`
	DNSBytes  int64  `json:"dns_bytes,omitempty"`

	// collector.totals / run.completed hygiene readings.
	Datagrams        int64 `json:"datagrams,omitempty"`
	DroppedDatagrams int64 `json:"dropped_datagrams,omitempty"`

	// fleet.utilization / merge.progress readings.
	Workers     int `json:"workers,omitempty"`
	WorkersBusy int `json:"workers_busy,omitempty"`
	Done        int `json:"done,omitempty"`
	Total       int `json:"total,omitempty"`

	Counts    *EventCounts `json:"counts,omitempty"`
	Libraries []LibBytes   `json:"libraries,omitempty"`
	Classes   []LibBytes   `json:"classes,omitempty"`
}

// Tap is a synchronous, lossless event consumer run inline on the
// publisher's goroutine. Taps must be fast and must not block.
type Tap func(Event)

// Bus is the event fan-out. The zero value is not usable; construct
// with NewBus. A nil *Bus is fully inert (Publish and Active are
// nil-safe), matching the rest of the obs package.
type Bus struct {
	reg *Registry

	seq       atomic.Uint64
	active    atomic.Int32 // taps + subscriptions; gates Publish
	published atomic.Int64
	dropped   atomic.Int64

	dropCounter atomic.Pointer[Counter] // registry counter, registered on first drop

	mu   sync.RWMutex
	subs map[*Subscription]struct{}
	taps []Tap
}

// BusStats is a point-in-time reading of the bus's own accounting,
// kept out of the registry so an idle bus never perturbs snapshots.
type BusStats struct {
	Published   int64 `json:"published"`
	Dropped     int64 `json:"dropped"`
	Subscribers int   `json:"subscribers"`
}

// NewBus creates a bus. reg may be nil; when present, slow-consumer
// drops are counted under MBusDropped (registered lazily on the first
// drop).
func NewBus(reg *Registry) *Bus {
	return &Bus{reg: reg, subs: make(map[*Subscription]struct{})}
}

// Active reports whether anything is listening. Publish sites use it to
// skip event construction entirely on the hot path; a false reading is
// one atomic load.
func (b *Bus) Active() bool {
	return b != nil && b.active.Load() > 0
}

// Publish fans ev out to every tap (inline, lossless) and every
// subscription (bounded ring, drop-oldest). Never blocks. No-op on a
// nil or idle bus.
func (b *Bus) Publish(ev Event) {
	if b == nil || b.active.Load() == 0 {
		return
	}
	ev.Seq = b.seq.Add(1)
	b.published.Add(1)
	b.mu.RLock()
	taps := b.taps
	for s := range b.subs {
		s.offer(ev)
	}
	b.mu.RUnlock()
	for _, tap := range taps {
		tap(ev)
	}
}

// Stream offers ev to every subscription and to no tap: the relay by
// which a shard incarnation's own bus feeds the campaign's live view.
// The campaign's taps take a shard's events from its sealed outcome
// instead (Record), so a dead incarnation's events never reach them.
func (b *Bus) Stream(ev Event) {
	if b == nil {
		return
	}
	ev.Seq = b.seq.Add(1)
	b.published.Add(1)
	b.mu.RLock()
	for s := range b.subs {
		s.offer(ev)
	}
	b.mu.RUnlock()
}

// Record hands ev to every tap and to no subscription: how a merge
// delivers the events sealed in shard outcomes to the campaign's event
// log, after Stream already showed them live.
func (b *Bus) Record(ev Event) {
	if b == nil {
		return
	}
	b.mu.RLock()
	taps := b.taps
	b.mu.RUnlock()
	for _, tap := range taps {
		tap(ev)
	}
}

// Tap registers a synchronous lossless tap. Taps cannot be removed;
// they live as long as the bus.
func (b *Bus) Tap(tap Tap) {
	if b == nil || tap == nil {
		return
	}
	b.mu.Lock()
	b.taps = append(b.taps, tap)
	b.mu.Unlock()
	b.active.Add(1)
}

// Stats reads the bus's internal accounting.
func (b *Bus) Stats() BusStats {
	if b == nil {
		return BusStats{}
	}
	b.mu.RLock()
	n := len(b.subs)
	b.mu.RUnlock()
	return BusStats{
		Published:   b.published.Load(),
		Dropped:     b.dropped.Load(),
		Subscribers: n,
	}
}

// countDrop records one slow-consumer drop: bus-wide atomic plus the
// lazily-registered registry counter.
func (b *Bus) countDrop() {
	b.dropped.Add(1)
	c := b.dropCounter.Load()
	if c == nil {
		// Racing registrations converge on the registry's get-or-create.
		c = b.reg.Counter(MBusDropped)
		if c == nil {
			return // no registry attached
		}
		b.dropCounter.Store(c)
	}
	c.Inc()
}

// SubOptions configures a subscription.
type SubOptions struct {
	// Types restricts delivery to the listed event types; empty means
	// all types.
	Types []EventType
	// Capacity bounds the ring buffer (default DefaultSubCapacity).
	Capacity int
}

// DefaultSubCapacity is the per-subscriber ring size when SubOptions
// leaves Capacity zero: enough to ride out a multi-second consumer
// stall at fleet event rates without unbounded memory.
const DefaultSubCapacity = 1024

// Subscribe registers a bounded consumer. The caller must Close it.
func (b *Bus) Subscribe(opts SubOptions) *Subscription {
	if b == nil {
		return nil
	}
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = DefaultSubCapacity
	}
	s := &Subscription{
		bus:    b,
		ring:   make([]Event, capacity),
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	if len(opts.Types) > 0 {
		s.types = make(map[EventType]bool, len(opts.Types))
		for _, t := range opts.Types {
			s.types[t] = true
		}
	}
	b.mu.Lock()
	b.subs[s] = struct{}{}
	b.mu.Unlock()
	b.active.Add(1)
	return s
}

// Subscription is one bounded consumer endpoint. Next is the consuming
// side; offer is the publishing side; the ring between them drops
// oldest on overflow.
type Subscription struct {
	bus   *Bus
	types map[EventType]bool // nil = all

	mu     sync.Mutex
	ring   []Event
	head   int // index of oldest buffered event
	count  int
	closed bool

	dropped atomic.Int64
	notify  chan struct{} // cap 1: "buffer non-empty" edge
	done    chan struct{} // closed by Close
}

// offer enqueues ev, dropping the oldest buffered event when the ring
// is full. Runs on the publisher's goroutine; never blocks.
func (s *Subscription) offer(ev Event) {
	if s.types != nil && !s.types[ev.Type] {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.count == len(s.ring) {
		s.head = (s.head + 1) % len(s.ring)
		s.count--
		s.dropped.Add(1)
		s.bus.countDrop()
	}
	s.ring[(s.head+s.count)%len(s.ring)] = ev
	s.count++
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Next blocks until an event is buffered, the context ends, or the
// subscription closes. The bool is false exactly when no event is
// returned. Nil-safe (a nil subscription is permanently empty).
func (s *Subscription) Next(ctx context.Context) (Event, bool) {
	if s == nil {
		return Event{}, false
	}
	for {
		s.mu.Lock()
		if s.count > 0 {
			ev := s.ring[s.head]
			s.ring[s.head] = Event{} // release payload references
			s.head = (s.head + 1) % len(s.ring)
			s.count--
			s.mu.Unlock()
			return ev, true
		}
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return Event{}, false
		}
		var ctxDone <-chan struct{}
		if ctx != nil {
			ctxDone = ctx.Done()
		}
		select {
		case <-ctxDone:
			return Event{}, false
		case <-s.done:
			// Drain what was buffered before the close, then report end.
		case <-s.notify:
		}
	}
}

// Dropped reports how many events this subscription lost to the
// drop-oldest policy.
func (s *Subscription) Dropped() int64 {
	if s == nil {
		return 0
	}
	return s.dropped.Load()
}

// Close detaches the subscription from the bus. Buffered events remain
// readable via Next until drained. Safe to call twice; nil-safe.
func (s *Subscription) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	s.bus.mu.Lock()
	delete(s.bus.subs, s)
	s.bus.mu.Unlock()
	s.bus.active.Add(-1)
}
