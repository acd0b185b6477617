package obs

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestBusHammer pins the bus's whole concurrency contract under -race:
// N publishers fan out to keep-up subscribers (who must lose nothing),
// a stalled subscriber (whose losses must be counted exactly), and the
// registry drop counter (which must equal the sum of per-subscription
// drops). Publish must never block, so the whole hammer runs under a
// deadline.
func TestBusHammer(t *testing.T) {
	const (
		publishers   = 4
		perPublisher = 2500
		total        = publishers * perPublisher
		keepUps      = 3
		stallCap     = 8
	)
	reg := NewRegistry()
	bus := NewBus(reg)

	// Keep-up subscribers: ring large enough to never drop, drained
	// concurrently with publishing.
	type drain struct {
		sub  *Subscription
		seen map[uint64]bool
		err  error
	}
	drains := make([]*drain, keepUps)
	var wg sync.WaitGroup
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := range drains {
		d := &drain{
			sub:  bus.Subscribe(SubOptions{Capacity: total}),
			seen: make(map[uint64]bool, total),
		}
		drains[i] = d
		wg.Add(1)
		go func() {
			defer wg.Done()
			for len(d.seen) < total {
				ev, ok := d.sub.Next(ctx)
				if !ok {
					d.err = fmt.Errorf("stream ended after %d/%d events", len(d.seen), total)
					return
				}
				if d.seen[ev.Seq] {
					d.err = fmt.Errorf("seq %d delivered twice", ev.Seq)
					return
				}
				d.seen[ev.Seq] = true
			}
		}()
	}

	// The stalled subscriber never reads while publishers run.
	stalled := bus.Subscribe(SubOptions{Capacity: stallCap})

	var pubs sync.WaitGroup
	start := make(chan struct{})
	for p := 0; p < publishers; p++ {
		pubs.Add(1)
		go func(p int) {
			defer pubs.Done()
			<-start
			for i := 0; i < perPublisher; i++ {
				bus.Publish(Event{Type: EvRunCompleted, App: p*perPublisher + i, Shard: -1})
			}
		}(p)
	}
	close(start)
	pubDone := make(chan struct{})
	go func() { pubs.Wait(); close(pubDone) }()
	select {
	case <-pubDone:
	case <-ctx.Done():
		t.Fatal("publishers blocked: the bus must never make Publish wait on a consumer")
	}
	wg.Wait()

	for i, d := range drains {
		if d.err != nil {
			t.Fatalf("keep-up subscriber %d: %v", i, d.err)
		}
		if got := d.sub.Dropped(); got != 0 {
			t.Fatalf("keep-up subscriber %d dropped %d events", i, got)
		}
		d.sub.Close()
	}

	// The stalled ring holds exactly its capacity; everything older was
	// dropped oldest-first and counted.
	wantDropped := int64(total - stallCap)
	if got := stalled.Dropped(); got != wantDropped {
		t.Fatalf("stalled subscription dropped %d, want %d", got, wantDropped)
	}
	var buffered int
	drainCtx, drainCancel := context.WithTimeout(context.Background(), time.Second)
	defer drainCancel()
	stalled.Close()
	for {
		ev, ok := stalled.Next(drainCtx)
		if !ok {
			break
		}
		// Drop-oldest means the survivors are the newest events.
		if ev.Seq <= uint64(wantDropped) {
			t.Fatalf("stalled ring kept seq %d, but everything <= %d should have been dropped", ev.Seq, wantDropped)
		}
		buffered++
	}
	if buffered != stallCap {
		t.Fatalf("stalled ring held %d events, want exactly its capacity %d", buffered, stallCap)
	}

	stats := bus.Stats()
	if stats.Published != int64(total) {
		t.Fatalf("bus published %d, want %d", stats.Published, total)
	}
	if stats.Dropped != wantDropped {
		t.Fatalf("bus counted %d drops, want %d", stats.Dropped, wantDropped)
	}
	if got := reg.Snapshot().Counters[MBusDropped]; got != wantDropped {
		t.Fatalf("registry %s = %d, want %d", MBusDropped, got, wantDropped)
	}
}

// TestBusDropCounterIsLazy pins the shard snapshot-invariance
// precondition: a bus that never drops must leave the registry
// byte-identical to a busless run.
func TestBusDropCounterIsLazy(t *testing.T) {
	reg := NewRegistry()
	bus := NewBus(reg)
	sub := bus.Subscribe(SubOptions{Capacity: 4})
	defer sub.Close()
	bus.Publish(Event{Type: EvRunStarted, App: 0, Shard: -1})
	if _, ok := reg.Snapshot().Counters[MBusDropped]; ok {
		t.Fatalf("%s registered with zero drops; it must appear only on the first actual drop", MBusDropped)
	}
	for i := 0; i < 5; i++ {
		bus.Publish(Event{Type: EvRunStarted, App: i, Shard: -1})
	}
	if got := reg.Snapshot().Counters[MBusDropped]; got != 2 {
		t.Fatalf("registry %s = %d after overflowing a 4-ring with 6 events, want 2", MBusDropped, got)
	}
}

// TestBusInactiveIsFree pins the hot-path gate: with no subscribers and
// no taps, Publish must be a no-op (no sequence burn, no accounting).
func TestBusInactiveIsFree(t *testing.T) {
	bus := NewBus(nil)
	if bus.Active() {
		t.Fatal("fresh bus reports active")
	}
	bus.Publish(Event{Type: EvRunCompleted})
	if s := bus.Stats(); s.Published != 0 {
		t.Fatalf("idle bus counted %d published events", s.Published)
	}
	var nilBus *Bus
	if nilBus.Active() {
		t.Fatal("nil bus reports active")
	}
	nilBus.Publish(Event{Type: EvRunCompleted}) // must not panic
}

// TestBusTypeFilter: a filtered subscription sees only its types, and
// events it filtered out are not charged as drops.
func TestBusTypeFilter(t *testing.T) {
	bus := NewBus(nil)
	sub := bus.Subscribe(SubOptions{Types: []EventType{EvRunFailed}, Capacity: 16})
	defer sub.Close()
	for i := 0; i < 10; i++ {
		bus.Publish(Event{Type: EvRunCompleted, App: i, Shard: -1})
	}
	bus.Publish(Event{Type: EvRunFailed, App: 10, Shard: -1})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	ev, ok := sub.Next(ctx)
	if !ok || ev.Type != EvRunFailed || ev.App != 10 {
		t.Fatalf("got (%v, %v), want the run.failed event", ev, ok)
	}
	if d := sub.Dropped(); d != 0 {
		t.Fatalf("filtered-out events were charged as %d drops", d)
	}
}

// TestSubscriptionCloseDrains: events buffered before Close stay
// readable; the stream ends only once the buffer is empty.
func TestSubscriptionCloseDrains(t *testing.T) {
	bus := NewBus(nil)
	sub := bus.Subscribe(SubOptions{Capacity: 8})
	for i := 0; i < 3; i++ {
		bus.Publish(Event{Type: EvRunCompleted, App: i, Shard: -1})
	}
	sub.Close()
	bus.Publish(Event{Type: EvRunCompleted, App: 99, Shard: -1}) // after close: must not arrive
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		ev, ok := sub.Next(ctx)
		if !ok || ev.App != i {
			t.Fatalf("drain %d: got (%v, %v)", i, ev, ok)
		}
	}
	if ev, ok := sub.Next(ctx); ok {
		t.Fatalf("closed subscription yielded %v after its buffer drained", ev)
	}
}

// TestEventLogCanonicalOrder: the log keeps only the deterministic
// subset and serializes identically regardless of arrival interleaving.
func TestEventLogCanonicalOrder(t *testing.T) {
	write := func(order []Event) []byte {
		bus := NewBus(nil)
		log := NewEventLog()
		log.AttachTo(bus)
		for _, ev := range order {
			bus.Publish(ev)
		}
		var buf bytes.Buffer
		if err := log.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ts := time.Unix(0, 0).UTC()
	perApp := map[int][]Event{
		0: {
			{Type: EvRunStarted, TS: ts, App: 0, Shard: -1},
			{Type: EvRunCompleted, TS: ts, App: 0, Shard: -1, Attempt: 1},
		},
		1: {
			{Type: EvRunStarted, TS: ts, App: 1, Shard: -1},
			{Type: EvRunRetry, TS: ts, App: 1, Shard: -1, Attempt: 1, Error: "boom"},
			{Type: EvRunQuarantined, TS: ts, App: 1, Shard: -1, Attempt: 3},
		},
	}
	tail := Event{Type: EvCampaignDone, TS: ts, App: -1, Shard: -1, Counts: &EventCounts{Apps: 2}}
	noise := Event{Type: EvShardStarted, TS: ts, App: -1, Shard: 0, Hi: 2} // topology-bound: never logged

	// Arrival A: apps interleaved one way; arrival B: the other way,
	// with the campaign tail arriving early and extra unlogged noise.
	// Both must serialize byte-identically.
	arrivalA := []Event{perApp[0][0], perApp[1][0], perApp[1][1], perApp[0][1], perApp[1][2], tail}
	arrivalB := []Event{noise, tail, perApp[1][0], perApp[0][0], perApp[1][1], perApp[1][2], noise, perApp[0][1]}
	a := write(arrivalA)
	b := write(arrivalB)
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical order depends on arrival interleaving:\nA:\n%s\nB:\n%s", a, b)
	}
	if bytes.Contains(a, []byte(EvShardStarted)) {
		t.Fatal("topology-bound event leaked into the deterministic log")
	}
	if !bytes.Contains(a, []byte(EvCampaignDone)) {
		t.Fatal("campaign.done missing from the log")
	}
	// Campaign scope sorts last.
	lines := bytes.Split(bytes.TrimSpace(a), []byte("\n"))
	if !bytes.Contains(lines[len(lines)-1], []byte(EvCampaignDone)) {
		t.Fatalf("campaign.done is not the final line:\n%s", a)
	}
}

// TestBusStreamAndRecord: the relay a shard bus taps streams to the
// campaign's subscriptions and never enters its event log; Record, the
// merge's entry point, reaches the log and never the subscriptions.
func TestBusStreamAndRecord(t *testing.T) {
	shard, campaign := NewBus(nil), NewBus(nil)
	shard.Tap(campaign.Stream)
	shardLog, campaignLog := NewEventLog(), NewEventLog()
	shardLog.AttachTo(shard)
	campaignLog.AttachTo(campaign)
	sub := campaign.Subscribe(SubOptions{})
	defer sub.Close()

	shard.Publish(Event{Type: EvRunStarted, App: 3, Shard: -1})
	if ev, ok := sub.Next(context.Background()); !ok || ev.App != 3 {
		t.Fatalf("subscriber got %+v, %t; want the shard's run.started", ev, ok)
	}
	if shardLog.Len() != 1 || campaignLog.Len() != 0 {
		t.Fatalf("shard log holds %d events, campaign log %d; want 1 and 0", shardLog.Len(), campaignLog.Len())
	}
	for _, ev := range shardLog.Events() {
		campaign.Record(ev)
	}
	if campaignLog.Len() != 1 || campaign.Stats().Published != 1 {
		t.Fatalf("after Record the campaign log holds %d events and the bus streamed %d; want 1 and 1", campaignLog.Len(), campaign.Stats().Published)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if ev, ok := sub.Next(ctx); ok {
		t.Fatalf("Record reached a subscriber: %+v", ev)
	}
}
