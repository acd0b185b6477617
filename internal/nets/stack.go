package nets

import (
	"errors"
	"fmt"
	"net/netip"
	"time"

	"libspector/internal/obs"
	"libspector/internal/pcap"
)

// ErrBlocked marks a dial denied by the connect policy; test with
// errors.Is.
var ErrBlocked = errors.New("connection blocked by policy")

// Defaults mirroring the Android emulator's user-mode network.
var (
	// DefaultLocalAddr is the guest address of the emulated device.
	DefaultLocalAddr = netip.AddrFrom4([4]byte{10, 0, 2, 15})
	// DefaultDNSServer is the emulator's built-in DNS proxy.
	DefaultDNSServer = netip.AddrFrom4([4]byte{10, 0, 2, 3})
	// DefaultCollectorAddr is the host-side data-collection server the
	// Socket Supervisor reports to (§II-A).
	DefaultCollectorAddr = netip.AddrFrom4([4]byte{10, 0, 2, 2})
)

// DefaultCollectorPort is the UDP port of the collection server.
const DefaultCollectorPort = 45999

// DefaultMSS is the TCP maximum segment size used when slicing transfers
// into packets.
const DefaultMSS = 1460

// firstEphemeralPort is where the stack's port allocator starts.
const firstEphemeralPort = 32768

// ConnectObserver is invoked after a TCP connection is established — the
// attachment point of the Xposed Socket Supervisor's post hook on
// socket/connect (§II-B2a). Post hooks guarantee the connection already
// has distinct socket-pair parameters when the observer runs.
type ConnectObserver func(conn *Conn)

// Config parameterizes a Stack.
type Config struct {
	LocalAddr     netip.Addr
	DNSServer     netip.Addr
	CollectorAddr netip.Addr
	CollectorPort uint16
	Resolver      Resolver
	Clock         *Clock
	// Capture receives every packet in and out of the emulator. Nil
	// disables capture.
	Capture *pcap.Writer
	// PacketLatency is the virtual one-way latency charged per packet.
	PacketLatency time.Duration
	// MSS is the TCP maximum segment size (DefaultMSS when zero).
	MSS int
	// Meters, when set, receives the stack's loss/veto series
	// (internal/obs) — supervisor datagrams dropped on the wire and
	// policy-blocked dials — in the run's meter cells, which their owner
	// flushes at run completion, so the hot path never touches shared
	// atomics. Cumulative wire-byte counters are folded in by the
	// emulator from Stats at run end instead, keeping the packet path
	// free of per-packet counter traffic.
	Meters *obs.Meters
}

// Stack is the emulated device's network stack.
type Stack struct {
	cfg       Config
	resolver  Resolver
	clock     *Clock
	capture   *pcap.Writer
	mss       int
	nextPort  uint16
	nextDNSID uint16

	observers []ConnectObserver
	// instrumentDelay is the extra per-connect latency the supervisor hook
	// introduces; it models the paper's measured 0.5 ms worst-case packet
	// delay (§II-B3) and is charged only while observers are attached.
	instrumentDelay time.Duration
	// udpSink forwards supervisor report payloads to the collection server
	// (in addition to the capture record of the datagram).
	udpSink func(payload []byte) error
	// datagramLoss, when set, simulates wire loss of supervisor datagrams
	// (internal/faults hook point): a true return for a 0-based datagram
	// index records the packet in the capture — the bytes did leave the
	// device — but never delivers it to the sink.
	datagramLoss func(index int) bool
	// supervisorSent counts supervisor datagrams emitted (including lost
	// ones); droppedDatagrams counts the lost subset.
	supervisorSent   int
	droppedDatagrams int64
	// connectVeto, when set, can deny a connection before the handshake —
	// the attachment point for BorderPatrol-style policy enforcement
	// (§IV-E). A veto error aborts the dial.
	connectVeto func(domain string, port uint16) error
	// blockedConnections counts vetoed dials.
	blockedConnections int64

	// Traffic accounting for the whole emulator, by wire bytes.
	tcpWireBytes int64
	udpWireBytes int64
	dnsWireBytes int64
	packetCount  int64

	// scratch holds a DNS message or a UDP exchange payload until its
	// datagram is recorded; the Stack is single-goroutine like its port
	// counters.
	scratch []byte
	// filler is the cached ReceiveN payload pattern (one MSS), and
	// fillerSum its partial checksum.
	filler    []byte
	fillerSum pcap.Sum
}

// NewStack creates a network stack. Resolver and Clock are required.
func NewStack(cfg Config) (*Stack, error) {
	if cfg.Resolver == nil {
		return nil, fmt.Errorf("nets: config needs a resolver")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("nets: config needs a clock")
	}
	if cfg.LocalAddr == (netip.Addr{}) {
		cfg.LocalAddr = DefaultLocalAddr
	}
	if cfg.DNSServer == (netip.Addr{}) {
		cfg.DNSServer = DefaultDNSServer
	}
	if cfg.CollectorAddr == (netip.Addr{}) {
		cfg.CollectorAddr = DefaultCollectorAddr
	}
	if cfg.CollectorPort == 0 {
		cfg.CollectorPort = DefaultCollectorPort
	}
	mss := cfg.MSS
	if mss == 0 {
		mss = DefaultMSS
	}
	if mss < 1 || mss > 65495 {
		return nil, fmt.Errorf("nets: MSS %d out of range", mss)
	}
	return &Stack{
		cfg:       cfg,
		resolver:  cfg.Resolver,
		clock:     cfg.Clock,
		capture:   cfg.Capture,
		mss:       mss,
		nextPort:  firstEphemeralPort,
		nextDNSID: 1,
	}, nil
}

// Clock returns the stack's virtual clock.
func (s *Stack) Clock() *Clock { return s.clock }

// LocalAddr returns the emulated device address.
func (s *Stack) LocalAddr() netip.Addr { return s.cfg.LocalAddr }

// OnConnect registers a connect post-hook observer.
func (s *Stack) OnConnect(observe ConnectObserver) {
	s.observers = append(s.observers, observe)
}

// SetInstrumentationDelay sets the per-connect virtual latency charged for
// the supervisor hook.
func (s *Stack) SetInstrumentationDelay(d time.Duration) { s.instrumentDelay = d }

// SetUDPSink installs the forwarding function for supervisor datagrams.
// The sink takes ownership of each payload SendSupervisorReport forwards:
// it may keep it without copying.
func (s *Stack) SetUDPSink(sink func(payload []byte) error) { s.udpSink = sink }

// SetDatagramLoss installs a fault hook dropping supervisor datagrams on
// the wire: drop is consulted with the 0-based index of each datagram and
// a true return loses it between the device and the collector sink.
func (s *Stack) SetDatagramLoss(drop func(index int) bool) { s.datagramLoss = drop }

// DroppedDatagrams reports how many supervisor datagrams were lost to the
// injected wire fault.
func (s *Stack) DroppedDatagrams() int64 { return s.droppedDatagrams }

// SetConnectVeto installs a pre-connect policy check. Returning an error
// denies the connection: no handshake packets are emitted and Dial fails
// with an error wrapping ErrBlocked and the veto reason.
func (s *Stack) SetConnectVeto(veto func(domain string, port uint16) error) {
	s.connectVeto = veto
}

// BlockedConnections reports how many dials the policy denied.
func (s *Stack) BlockedConnections() int64 { return s.blockedConnections }

// Stats reports cumulative wire-byte counters.
type Stats struct {
	TCPWireBytes int64
	UDPWireBytes int64
	DNSWireBytes int64
	PacketCount  int64
}

// Stats returns a snapshot of the traffic counters.
func (s *Stack) Stats() Stats {
	return Stats{
		TCPWireBytes: s.tcpWireBytes,
		UDPWireBytes: s.udpWireBytes,
		DNSWireBytes: s.dnsWireBytes,
		PacketCount:  s.packetCount,
	}
}

func (s *Stack) allocPort() uint16 {
	p := s.nextPort
	s.nextPort++
	if s.nextPort == 0 {
		s.nextPort = firstEphemeralPort
	}
	return p
}

// record charges latency and counts one packet of n wire bytes, then
// reserves its capture record of the first keep of them, stamped with
// the advanced clock, and returns those bytes for the caller to encode
// into — nil when the stack captures nothing.
func (s *Stack) record(n, keep int, proto uint8, isDNS bool) ([]byte, error) {
	s.clock.Advance(s.cfg.PacketLatency)
	s.packetCount++
	switch proto {
	case pcap.ProtoTCP:
		s.tcpWireBytes += int64(n)
	case pcap.ProtoUDP:
		s.udpWireBytes += int64(n)
		if isDNS {
			s.dnsWireBytes += int64(n)
		}
	}
	if s.capture == nil {
		return nil, nil
	}
	pkt, err := s.capture.Reserve(s.clock.Now(), keep, n)
	if err != nil {
		return nil, fmt.Errorf("nets: recording packet: %w", err)
	}
	return pkt, nil
}

// emitUDP records one UDP datagram, encoded straight into its capture
// record. The caller names the datagram in the error.
func (s *Stack) emitUDP(t pcap.FourTuple, payload []byte, isDNS bool) error {
	n, err := pcap.UDPLen(t, len(payload))
	if err != nil {
		return err
	}
	pkt, err := s.record(n, n, pcap.ProtoUDP, isDNS)
	if err != nil || pkt == nil {
		return err
	}
	pcap.PutUDP(pkt, t, payload, pcap.SumOf(payload))
	return nil
}

// resolve performs a DNS lookup, emitting the query and response datagrams
// into the capture.
func (s *Stack) resolve(name string) (netip.Addr, error) {
	id := s.nextDNSID
	s.nextDNSID++
	srcPort := s.allocPort()
	queryTuple := pcap.FourTuple{
		SrcIP: s.cfg.LocalAddr, SrcPort: srcPort,
		DstIP: s.cfg.DNSServer, DstPort: pcap.DNSPort,
	}
	var err error
	s.scratch, err = pcap.AppendDNS(s.scratch[:0], pcap.DNSMessage{ID: id, Name: name})
	if err != nil {
		return netip.Addr{}, fmt.Errorf("nets: building DNS query for %s: %w", name, err)
	}
	if err := s.emitUDP(queryTuple, s.scratch, true); err != nil {
		return netip.Addr{}, fmt.Errorf("nets: encoding DNS query for %s: %w", name, err)
	}

	addr, err := s.resolver.Resolve(name)
	if err != nil {
		return netip.Addr{}, err
	}

	s.scratch, err = pcap.AppendDNS(s.scratch[:0], pcap.DNSMessage{ID: id, Response: true, Name: name, Answer: addr, TTL: 300})
	if err != nil {
		return netip.Addr{}, fmt.Errorf("nets: building DNS response for %s: %w", name, err)
	}
	if err := s.emitUDP(queryTuple.Reverse(), s.scratch, true); err != nil {
		return netip.Addr{}, fmt.Errorf("nets: encoding DNS response for %s: %w", name, err)
	}
	return addr, nil
}

// Dial resolves the domain and establishes a TCP connection to it. The DNS
// exchange, the three-way handshake, and the connect-hook invocation all
// happen before Dial returns, matching post-hook semantics.
func (s *Stack) Dial(domain string, port uint16) (*Conn, error) {
	addr, err := s.resolve(domain)
	if err != nil {
		return nil, fmt.Errorf("nets: dialing %s:%d: %w", domain, port, err)
	}
	return s.dialAddr(domain, addr, port)
}

// DialAddr establishes a TCP connection to an explicit address without a
// DNS exchange (used by direct-to-IP connections).
func (s *Stack) DialAddr(addr netip.Addr, port uint16) (*Conn, error) {
	return s.dialAddr("", addr, port)
}

func (s *Stack) dialAddr(domain string, addr netip.Addr, port uint16) (*Conn, error) {
	if port == 0 {
		return nil, fmt.Errorf("nets: cannot dial port 0")
	}
	if s.connectVeto != nil {
		if err := s.connectVeto(domain, port); err != nil {
			s.blockedConnections++
			s.cfg.Meters.Counter(obs.MNetsBlockedConns).Inc()
			return nil, fmt.Errorf("nets: dial %s:%d: %w: %w", domain, port, ErrBlocked, err)
		}
	}
	tuple := pcap.FourTuple{
		SrcIP: s.cfg.LocalAddr, SrcPort: s.allocPort(),
		DstIP: addr, DstPort: port,
	}
	c := &Conn{stack: s, tuple: tuple, domain: domain, seq: 1, peerSeq: 1}

	// Three-way handshake.
	if err := c.emit(tuple, pcap.FlagSYN, nil, 0); err != nil {
		return nil, err
	}
	if err := c.emit(tuple.Reverse(), pcap.FlagSYN|pcap.FlagACK, nil, 0); err != nil {
		return nil, err
	}
	if err := c.emit(tuple, pcap.FlagACK, nil, 0); err != nil {
		return nil, err
	}

	if len(s.observers) > 0 {
		s.clock.Advance(s.instrumentDelay)
		for _, observe := range s.observers {
			observe(c)
		}
	}
	return c, nil
}

// SendSupervisorReport emits one UDP datagram carrying a Socket Supervisor
// report toward the collection server: the datagram is recorded in the
// emulator capture (the paper explicitly excludes these from traffic
// accounting, §III-E) and the payload is forwarded to the collector sink.
// The caller hands payload over: the sink may keep it, so the caller must
// not write to it again.
func (s *Stack) SendSupervisorReport(payload []byte) error {
	tuple := pcap.FourTuple{
		SrcIP: s.cfg.LocalAddr, SrcPort: s.allocPort(),
		DstIP: s.cfg.CollectorAddr, DstPort: s.cfg.CollectorPort,
	}
	if err := s.emitUDP(tuple, payload, false); err != nil {
		return fmt.Errorf("nets: encoding supervisor report: %w", err)
	}
	idx := s.supervisorSent
	s.supervisorSent++
	if s.datagramLoss != nil && s.datagramLoss(idx) {
		// Lost on the wire: the capture has the egress record, the
		// collector never sees the payload, and the sender cannot tell.
		s.droppedDatagrams++
		s.cfg.Meters.Counter(obs.MNetsDroppedGrams).Inc()
		return nil
	}
	if s.udpSink != nil {
		if err := s.udpSink(payload); err != nil {
			return fmt.Errorf("nets: forwarding supervisor report: %w", err)
		}
	}
	return nil
}

// CollectorEndpoint returns the configured collector address and port.
func (s *Stack) CollectorEndpoint() (netip.Addr, uint16) {
	return s.cfg.CollectorAddr, s.cfg.CollectorPort
}

// ExchangeUDP performs a plain datagram request/response exchange (NTP
// time sync, QUIC discovery, …) — the non-DNS sliver of UDP traffic the
// paper observes and excludes from flow analysis (§III-E: UDP is 0.52% of
// traffic, 97% of which is DNS). The name is resolved first, emitting the
// usual DNS exchange.
func (s *Stack) ExchangeUDP(domain string, port uint16, reqLen, respLen int) error {
	if port == 0 {
		return fmt.Errorf("nets: cannot exchange on port 0")
	}
	if reqLen < 1 || respLen < 0 {
		return fmt.Errorf("nets: invalid UDP exchange sizes %d/%d", reqLen, respLen)
	}
	addr, err := s.resolve(domain)
	if err != nil {
		return fmt.Errorf("nets: UDP exchange with %s: %w", domain, err)
	}
	tuple := pcap.FourTuple{
		SrcIP: s.cfg.LocalAddr, SrcPort: s.allocPort(),
		DstIP: addr, DstPort: port,
	}
	s.scratch = appendPattern(s.scratch[:0], reqLen, 13)
	if err := s.emitUDP(tuple, s.scratch, false); err != nil {
		return fmt.Errorf("nets: encoding UDP request: %w", err)
	}
	if respLen > 0 {
		s.scratch = appendPattern(s.scratch[:0], respLen, 7)
		if err := s.emitUDP(tuple.Reverse(), s.scratch, false); err != nil {
			return fmt.Errorf("nets: encoding UDP response: %w", err)
		}
	}
	return nil
}

// appendPattern appends n bytes of the exchange filler byte(i*step).
func appendPattern(b []byte, n, step int) []byte {
	for i := 0; i < n; i++ {
		b = append(b, byte(i*step))
	}
	return b
}
