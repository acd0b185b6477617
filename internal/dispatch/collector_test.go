package dispatch

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"libspector/internal/emulator"
	"libspector/internal/obs"
	"libspector/internal/xposed"
)

// newTestCollector starts a collector and one client dialed to it, both
// closed when the test ends.
func newTestCollector(t *testing.T) (*Collector, *Client) {
	t.Helper()
	c, err := NewCollector(nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	client, err := NewClient(c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return c, client
}

// pendingBarriers is how many barriers the collector is still waiting on.
func pendingBarriers(c *Collector) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}

// reportGroups is how many apks the collector still holds reports, or
// dedupe memory, for.
func reportGroups(c *Collector) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return max(len(c.bySHA), len(c.seen))
}

// TestBarrierTokensLeaveNoState: the collector keeps a token only while a
// barrier waits for it. A token nobody waits for is dropped on arrival, a
// landed barrier's entry is gone when it returns, and a barrier that times
// out removes its own.
func TestBarrierTokensLeaveNoState(t *testing.T) {
	c, client := newTestCollector(t)
	if err := client.Send([]byte(syncMagic + "orphan")); err != nil {
		t.Fatal(err)
	}
	if err := c.Barrier(client, "fence"); err != nil {
		t.Fatal(err)
	}
	if n := pendingBarriers(c); n != 0 {
		t.Fatalf("%d barrier entries left after an orphan token and a landed barrier", n)
	}

	origBudget := collectorDrainBudget
	collectorDrainBudget = 25 * time.Millisecond
	defer func() { collectorDrainBudget = origBudget }()
	blackhole, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer blackhole.Close()
	lost, err := NewClient(blackhole.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer lost.Close()
	if err := c.Barrier(lost, "lost"); err == nil || !strings.Contains(err.Error(), "never landed") {
		t.Fatalf("barrier through a black hole = %v, want the timeout", err)
	}
	if n := pendingBarriers(c); n != 0 {
		t.Fatalf("a timed-out barrier left %d entries behind", n)
	}
}

// TestBarrierConcurrentClients hammers one collector with many clients'
// barriers at once (make race runs it under the race detector): each
// client streams its own apk's reports and ends every round with a
// barrier, after which the collector holds exactly that round's reports.
func TestBarrierConcurrentClients(t *testing.T) {
	c, _ := newTestCollector(t)
	const clients, rounds, perRound = 8, 25, 4
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			client, err := NewClient(c.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			sha := fmt.Sprintf("%064x", k)
			for r := 0; r < rounds; r++ {
				c.Forget(sha)
				for i := 0; i < perRound; i++ {
					report := xposed.Report{
						APKSHA256: sha, Tuple: testTupleForCollector(),
						ConnectedAt: time.Unix(int64(r), 0).UTC(), StackTrace: []string{"java.net.Socket.connect"},
					}
					report.Tuple.SrcPort += uint16(i)
					payload, err := report.Encode()
					if err == nil {
						err = client.Send(payload)
					}
					if err != nil {
						errs <- err
						return
					}
				}
				if err := c.Barrier(client, fmt.Sprintf("%d/%d", k, r)); err != nil {
					errs <- err
					return
				}
				if n := len(c.ReportsFor(sha)); n != perRound {
					errs <- fmt.Errorf("client %d round %d: collector holds %d reports after the barrier, want %d", k, r, n, perRound)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := pendingBarriers(c); n != 0 {
		t.Errorf("%d barrier entries left after every barrier landed", n)
	}
	if total, _, _ := c.Totals(); total != clients*rounds*perRound {
		t.Errorf("collector received %d reports, want %d", total, clients*rounds*perRound)
	}
}

// TestDrainLossFailsFast routes a worker's datagrams through a forwarder
// that drops the second one. The barrier token follows the loss on the
// same path and still lands, so the attempt fails with the loss error at
// once instead of waiting out the drain budget.
func TestDrainLossFailsFast(t *testing.T) {
	origBudget := collectorDrainBudget
	collectorDrainBudget = 2 * time.Second
	defer func() { collectorDrainBudget = origBudget }()

	collector, err := NewCollector(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = collector.Close() }()
	in, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	out, err := net.DialUDP("udp4", nil, collector.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	// One goroutine and one outbound socket keep the forwarded datagrams
	// in the order they arrived.
	go func() {
		buf := make([]byte, 65535)
		for n := 0; ; n++ {
			k, _, err := in.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if n != 1 {
				_, _ = out.Write(buf[:k])
			}
		}
	}()
	client, err := NewClient(in.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	world, attributor := telemetryWorld(t, 191, 8)
	idx := -1
	for i := 0; i < world.NumApps() && idx < 0; i++ {
		app, err := world.GenerateApp(i)
		if err != nil {
			t.Fatal(err)
		}
		if app.APK.SupportsX86() {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("no x86 app in the corpus")
	}
	opts := emulator.DefaultOptions(191)
	opts.Monkey.Events = 120
	env := &runEnv{
		source:    world,
		resolver:  world.Resolver,
		cfg:       Config{Emulator: opts, BaseSeed: 191, Attributor: attributor},
		store:     NewStore(),
		collector: collector,
		client:    client,
		meters:    obs.NewMeters(),
	}
	start := time.Now()
	_, _, meters, _, err := env.runOne(context.Background(), idx, 1, nil)
	elapsed := time.Since(start)
	if meters == nil || meters.ReportsSent < 2 {
		t.Fatalf("app %d sent fewer than two reports (%+v); the forwarder drops nothing it reads", idx, meters)
	}
	if err == nil || !strings.Contains(err.Error(), "collector lost 1 of") {
		t.Fatalf("attempt with a dropped report = %v, want the loss error", err)
	}
	if elapsed > collectorDrainBudget/4 {
		t.Errorf("loss took %v to surface, want well under the %v drain budget", elapsed, collectorDrainBudget)
	}
}
