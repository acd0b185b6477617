package dispatch

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"libspector/internal/obs"
	"libspector/internal/xposed"
)

// Collector is the central data-collection server: a real UDP listener
// that receives Socket Supervisor datagrams from the worker fleet and
// groups decoded reports by apk checksum (§II-A).
type Collector struct {
	conn *net.UDPConn
	wg   sync.WaitGroup
	// tel mirrors the datagram totals into live telemetry counters so
	// the ops endpoint shows loss while the fleet is still running.
	// Set before the receive loop starts; nil disables the mirror.
	tel *obs.Telemetry
	// Counter handles resolved once at construction: the receive loop is
	// per-datagram hot, and a registry lookup per datagram is an RWMutex
	// acquisition plus a map probe it doesn't need. The handles stay
	// atomic (not worker-local meters) because the collector outlives
	// every run and the ops endpoint reads its loss series live.
	cReceived  *obs.Counter
	cMalformed *obs.Counter
	cDropped   *obs.Counter

	mu    sync.Mutex
	bySHA map[string][]*xposed.Report
	seen  map[string]map[[sha256.Size]byte]struct{}
	// waiters holds one channel per barrier still waiting for its token;
	// the receive loop closes and removes it when the token lands.
	waiters   map[string]chan struct{}
	total     int
	malformed int
	dropped   int
}

// collectorTotalsEvery is the datagram cadence for collector.totals bus
// events: often enough for a live dashboard, far below per-datagram.
const collectorTotalsEvery = 256

// publishTotals streams a collector.totals event. Wall-only: arrival
// counts mid-run depend on socket timing, so a deterministic run's
// event stream must never carry them.
func (c *Collector) publishTotals() {
	if c.tel.Virtual() {
		return
	}
	bus := c.tel.Bus()
	if !bus.Active() {
		return
	}
	received, malformed, dropped := c.Totals()
	bus.Publish(obs.Event{
		Type: obs.EvCollectorTotals, TS: c.tel.Now(), App: -1, Shard: -1,
		Datagrams:        int64(received + malformed),
		DroppedDatagrams: int64(dropped),
	})
}

// syncMagic prefixes barrier datagrams: a worker ending an attempt sends
// one on the same socket it streamed reports through, then waits for the
// token to land. Loopback preserves per-socket datagram order, so the
// token landing proves every report the attempt sent has been received.
// Sync frames are control traffic: they touch no report groups and no
// datagram counters.
const syncMagic = "LSSYNC01"

// collectorDrainBudget bounds how long a barrier waits for its token, in
// wall time: datagrams arrive in real time whatever clock the fleet
// keeps. A package variable so tests can exercise the timeout without a
// five-second stall.
var collectorDrainBudget = 5 * time.Second

// barrierResend is how often a waiting barrier re-sends its token, in
// case the token datagram itself was lost.
const barrierResend = 20 * time.Millisecond

// NewCollector starts a collector on an ephemeral loopback port. tel,
// when non-nil, receives the datagram counter series live.
func NewCollector(tel *obs.Telemetry) (*Collector, error) {
	addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0}
	conn, err := net.ListenUDP("udp4", addr)
	if err != nil {
		return nil, fmt.Errorf("dispatch: starting collector: %w", err)
	}
	// A full worker fleet bursts reports faster than the decode loop
	// drains the socket; the default kernel receive buffer overflows and
	// silently drops datagrams. Ask for a deep buffer (the kernel clamps
	// to rmem_max) so loss on loopback is effectively impossible.
	_ = conn.SetReadBuffer(8 << 20)
	c := &Collector{
		conn:       conn,
		tel:        tel,
		cReceived:  tel.Counter(obs.MCollectorReceived),
		cMalformed: tel.Counter(obs.MCollectorMalformed),
		cDropped:   tel.Counter(obs.MCollectorDropped),
		bySHA:      make(map[string][]*xposed.Report),
		seen:       make(map[string]map[[sha256.Size]byte]struct{}),
		waiters:    make(map[string]chan struct{}),
	}
	c.wg.Add(1)
	go c.receiveLoop()
	return c, nil
}

func (c *Collector) receiveLoop() {
	defer c.wg.Done()
	buf := make([]byte, 65535)
	for {
		n, _, err := c.conn.ReadFromUDP(buf)
		if err != nil {
			// Closed socket ends the loop.
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Any other read error loses a datagram; count it so the loss
			// shows up in Totals instead of vanishing silently.
			c.mu.Lock()
			c.dropped++
			c.mu.Unlock()
			c.cDropped.Inc()
			continue
		}
		if n >= len(syncMagic) && string(buf[:len(syncMagic)]) == syncMagic {
			// A token nobody waits for (a re-sent duplicate, or one whose
			// barrier gave up) leaves no state behind.
			token := string(buf[len(syncMagic):n])
			c.mu.Lock()
			if landed, ok := c.waiters[token]; ok {
				close(landed)
				delete(c.waiters, token)
			}
			c.mu.Unlock()
			continue
		}
		// DecodeReport copies what it keeps and the hash is taken before
		// the next read, so both work on the receive buffer itself.
		payload := buf[:n]
		report, err := xposed.DecodeReport(payload)
		if err != nil {
			c.cMalformed.Inc()
		} else {
			c.cReceived.Inc()
		}
		c.mu.Lock()
		if err != nil {
			c.malformed++
		} else {
			// Group each distinct payload once per apk. The supervisor never
			// sends two identical datagrams within a run (each report carries
			// its connection's unique socket pair), so a duplicate can only
			// be residue from a failed attempt whose deterministic retry
			// resends byte-identical reports — grouping either copy, exactly
			// once, converges the group to the clean run's report set
			// regardless of arrival order. The wire total stays cumulative.
			key := sha256.Sum256(payload)
			group, ok := c.seen[report.APKSHA256]
			if !ok {
				group = make(map[[sha256.Size]byte]struct{})
				c.seen[report.APKSHA256] = group
			}
			if _, dup := group[key]; !dup {
				group[key] = struct{}{}
				c.bySHA[report.APKSHA256] = append(c.bySHA[report.APKSHA256], report)
			}
			c.total++
		}
		counted := c.total + c.malformed + c.dropped
		c.mu.Unlock()
		if counted%collectorTotalsEvery == 0 {
			c.publishTotals()
		}
	}
}

// Addr returns the collector's UDP address.
func (c *Collector) Addr() *net.UDPAddr {
	addr, ok := c.conn.LocalAddr().(*net.UDPAddr)
	if !ok {
		return nil
	}
	return addr
}

// Forget discards the reports grouped under an apk checksum. Retry
// attempts call it so a failed attempt's datagrams — all landed, since
// the attempt ended with a Barrier — don't pollute the retried run's
// attribution input; the wire totals stay cumulative.
func (c *Collector) Forget(sha string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.bySHA, sha)
	delete(c.seen, sha)
}

// Barrier sends a sync token on client's socket and waits until the
// collector receives it, re-sending on a slow ticker. Once it returns nil,
// every datagram client sent before the call has landed, since loopback
// keeps per-socket order. token must be unique among concurrent barriers.
// It gives up after collectorDrainBudget, leaving no waiter behind.
func (c *Collector) Barrier(client *Client, token string) error {
	landed := make(chan struct{})
	c.mu.Lock()
	c.waiters[token] = landed
	c.mu.Unlock()
	payload := append([]byte(syncMagic), token...)
	resend := time.NewTicker(barrierResend)
	defer resend.Stop()
	deadline := time.Now().Add(collectorDrainBudget)
	for {
		// A failed send is retried on the next tick like a lost token.
		_ = client.Send(payload)
		select {
		case <-landed:
			return nil
		case <-resend.C:
		}
		if time.Now().After(deadline) {
			c.mu.Lock()
			delete(c.waiters, token)
			c.mu.Unlock()
			return fmt.Errorf("collector barrier %s never landed within %v", token, collectorDrainBudget)
		}
	}
}

// ReportsFor returns the reports received for an apk checksum.
func (c *Collector) ReportsFor(sha string) []*xposed.Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	reports := c.bySHA[sha]
	out := make([]*xposed.Report, len(reports))
	copy(out, reports)
	return out
}

// Totals reports (received, malformed, dropped) datagram counts: decoded
// reports, undecodable payloads, and read errors that lost a datagram.
func (c *Collector) Totals() (received, malformed, dropped int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total, c.malformed, c.dropped
}

// Close stops the receive loop and releases the socket.
func (c *Collector) Close() error {
	err := c.conn.Close()
	c.wg.Wait()
	return err
}

// Client is a worker-side sender toward the collector.
type Client struct {
	conn *net.UDPConn
}

// NewClient dials the collector.
func NewClient(addr *net.UDPAddr) (*Client, error) {
	if addr == nil {
		return nil, fmt.Errorf("dispatch: nil collector address")
	}
	conn, err := net.DialUDP("udp4", nil, addr)
	if err != nil {
		return nil, fmt.Errorf("dispatch: dialing collector: %w", err)
	}
	return &Client{conn: conn}, nil
}

// Send ships one datagram payload.
func (c *Client) Send(payload []byte) error {
	if _, err := c.conn.Write(payload); err != nil {
		return fmt.Errorf("dispatch: sending report: %w", err)
	}
	return nil
}

// Close releases the client socket.
func (c *Client) Close() error { return c.conn.Close() }
