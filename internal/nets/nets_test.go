package nets

import (
	"bytes"
	"io"
	"net/netip"
	"strings"
	"testing"
	"time"

	"libspector/internal/pcap"
)

func testClock() *Clock {
	return NewClock(time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC))
}

func testResolver(t *testing.T) *StaticResolver {
	t.Helper()
	r := NewStaticResolver()
	if err := r.Add("ads.example.com", netip.AddrFrom4([4]byte{198, 18, 0, 1})); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("cdn.example.net", netip.AddrFrom4([4]byte{198, 18, 0, 2})); err != nil {
		t.Fatal(err)
	}
	return r
}

func newTestStack(t *testing.T, capture bool) *Stack {
	t.Helper()
	cfg := Config{Resolver: testResolver(t), Clock: testClock()}
	if capture {
		cfg.Capture = pcap.NewWriter(nil)
	}
	s, err := NewStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestClock(t *testing.T) {
	c := testClock()
	start := c.Now()
	c.Advance(time.Second)
	if c.Now().Sub(start) != time.Second {
		t.Error("Advance(1s) did not move the clock")
	}
	c.Advance(-time.Hour)
	if c.Now().Before(start) {
		t.Error("negative advance must be ignored")
	}
}

func TestResolver(t *testing.T) {
	r := testResolver(t)
	addr, err := r.Resolve("ads.example.com")
	if err != nil || addr != netip.AddrFrom4([4]byte{198, 18, 0, 1}) {
		t.Errorf("Resolve = %v, %v", addr, err)
	}
	if _, err := r.Resolve("nxdomain.example"); err == nil {
		t.Error("unknown name should fail")
	}
	if err := r.Add("", netip.AddrFrom4([4]byte{1, 2, 3, 4})); err == nil {
		t.Error("empty name should fail")
	}
	if err := r.Add("v6.example", netip.MustParseAddr("::1")); err == nil {
		t.Error("IPv6 should fail")
	}
	// Rebinding to the same address is idempotent, to a new one fails.
	if err := r.Add("ads.example.com", netip.AddrFrom4([4]byte{198, 18, 0, 1})); err != nil {
		t.Errorf("idempotent re-add failed: %v", err)
	}
	if err := r.Add("ads.example.com", netip.AddrFrom4([4]byte{9, 9, 9, 9})); err == nil {
		t.Error("rebinding should fail")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestStackConfigValidation(t *testing.T) {
	if _, err := NewStack(Config{Clock: testClock()}); err == nil {
		t.Error("missing resolver should fail")
	}
	if _, err := NewStack(Config{Resolver: NewStaticResolver()}); err == nil {
		t.Error("missing clock should fail")
	}
	if _, err := NewStack(Config{Resolver: NewStaticResolver(), Clock: testClock(), MSS: -1}); err == nil {
		t.Error("negative MSS should fail")
	}
}

// parseCapture decodes all packets the stack has captured.
func parseCapture(t *testing.T, s *Stack) []pcap.Segment {
	t.Helper()
	r, err := pcap.NewReader(bytes.NewReader(s.capture.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var segs []pcap.Segment
	var p pcap.Packet
	for {
		err := r.Next(&p)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		var seg pcap.Segment
		if err := pcap.DecodeSegmentInto(&seg, p.Data, p.OrigLen); err != nil {
			t.Fatal(err)
		}
		segs = append(segs, seg)
	}
	return segs
}

// tcpHeaders is the IPv4 and TCP header length of every TCP packet the
// stack emits: a segment's wire payload is its WireLen less this, whether
// or not the capture kept the payload.
const tcpHeaders = 40

func TestDialEmitsDNSAndHandshake(t *testing.T) {
	s := newTestStack(t, true)
	conn, err := s.Dial("ads.example.com", 80)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	segs := parseCapture(t, s)
	// Expect: DNS query, DNS response, SYN, SYN-ACK, ACK, FIN-ACK,
	// FIN-ACK, ACK = 8 packets.
	if len(segs) != 8 {
		t.Fatalf("capture has %d packets, want 8", len(segs))
	}
	if segs[0].Protocol != pcap.ProtoUDP || segs[1].Protocol != pcap.ProtoUDP {
		t.Error("first two packets should be the DNS exchange")
	}
	if segs[2].Flags != pcap.FlagSYN {
		t.Errorf("packet 2 flags %#x, want SYN", segs[2].Flags)
	}
	if segs[3].Flags != pcap.FlagSYN|pcap.FlagACK {
		t.Errorf("packet 3 flags %#x, want SYN|ACK", segs[3].Flags)
	}
	// The DNS response must resolve to the connection's destination.
	msg, err := pcap.DecodeDNS(segs[1].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Answer != conn.Tuple().DstIP {
		t.Errorf("DNS answer %v != conn dst %v", msg.Answer, conn.Tuple().DstIP)
	}
}

func TestConnByteAccounting(t *testing.T) {
	s := newTestStack(t, true)
	conn, err := s.Dial("cdn.example.net", 443)
	if err != nil {
		t.Fatal(err)
	}
	request := bytes.Repeat([]byte{'r'}, 500)
	if err := conn.Send(request); err != nil {
		t.Fatal(err)
	}
	const respSize = 100_000
	if err := conn.ReceiveN(respSize); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if conn.SentPayload() != 500 {
		t.Errorf("SentPayload = %d", conn.SentPayload())
	}
	if conn.ReceivedPayload() != respSize {
		t.Errorf("ReceivedPayload = %d", conn.ReceivedPayload())
	}

	segs := parseCapture(t, s)
	var inPayload, outPayload, inKept, outKept int64
	var inPackets, outPackets int
	local := s.LocalAddr()
	for _, seg := range segs {
		if seg.Protocol != pcap.ProtoTCP {
			continue
		}
		if seg.Tuple.SrcIP == local {
			outPayload += int64(seg.WireLen - tcpHeaders)
			outKept += int64(len(seg.Payload))
			outPackets++
		} else {
			inPayload += int64(seg.WireLen - tcpHeaders)
			inKept += int64(len(seg.Payload))
			inPackets++
		}
	}
	if outPayload != 500 {
		t.Errorf("captured outbound payload %d, want 500", outPayload)
	}
	if inPayload != respSize {
		t.Errorf("captured inbound payload %d, want %d", inPayload, respSize)
	}
	// The capture keeps each direction's first payload segment whole and
	// only the headers of the rest.
	if outKept != 500 || inKept != DefaultMSS {
		t.Errorf("capture kept %d outbound and %d inbound payload bytes, want 500 and %d", outKept, inKept, DefaultMSS)
	}
	// Data segments: ceil(100000/1460) = 69 inbound; ACKs from the app
	// every ackSpacing-th segment keep outbound packet counts low.
	wantSegments := (respSize + DefaultMSS - 1) / DefaultMSS
	if inPackets < wantSegments {
		t.Errorf("inbound packets %d, want at least %d data segments", inPackets, wantSegments)
	}
	maxACKs := wantSegments/ackSpacing + 2
	// outbound = SYN + ACK(handshake) + 1 request + ACKs + FIN + final ACK.
	if outPackets > 5+maxACKs {
		t.Errorf("outbound packets %d exceed expected ACK budget %d", outPackets, 5+maxACKs)
	}
}

func TestConnClosedSemantics(t *testing.T) {
	s := newTestStack(t, false)
	conn, err := s.Dial("ads.example.com", 80)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Errorf("double close should be a no-op: %v", err)
	}
	if err := conn.Send([]byte("x")); err == nil {
		t.Error("send on closed connection should fail")
	}
	if err := conn.ReceiveN(10); err == nil {
		t.Error("receive on closed connection should fail")
	}
	if err := conn.Receive([]byte("x")); err == nil {
		t.Error("receive on closed connection should fail")
	}
}

func TestConnAddressAccessors(t *testing.T) {
	s := newTestStack(t, false)
	conn, err := s.Dial("ads.example.com", 8080)
	if err != nil {
		t.Fatal(err)
	}
	localIP, localPort := conn.LocalAddr()
	if localIP != s.LocalAddr() || localPort < firstEphemeralPort {
		t.Errorf("LocalAddr = %v:%d", localIP, localPort)
	}
	remoteIP, remotePort := conn.RemoteAddr()
	if remotePort != 8080 || remoteIP != netip.AddrFrom4([4]byte{198, 18, 0, 1}) {
		t.Errorf("RemoteAddr = %v:%d", remoteIP, remotePort)
	}
	if conn.Domain() != "ads.example.com" {
		t.Errorf("Domain = %q", conn.Domain())
	}
}

func TestEphemeralPortsDistinct(t *testing.T) {
	s := newTestStack(t, false)
	seen := make(map[uint16]bool)
	for i := 0; i < 50; i++ {
		conn, err := s.Dial("ads.example.com", 80)
		if err != nil {
			t.Fatal(err)
		}
		_, port := conn.LocalAddr()
		if seen[port] {
			t.Fatalf("ephemeral port %d reused", port)
		}
		seen[port] = true
	}
}

func TestConnectObserverPostHookSemantics(t *testing.T) {
	s := newTestStack(t, false)
	var observed []pcap.FourTuple
	s.OnConnect(func(c *Conn) { observed = append(observed, c.Tuple()) })
	conn, err := s.Dial("ads.example.com", 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(observed) != 1 || observed[0] != conn.Tuple() {
		t.Errorf("observer saw %v, want %v", observed, conn.Tuple())
	}
}

func TestInstrumentationDelayCharged(t *testing.T) {
	s := newTestStack(t, false)
	s.OnConnect(func(*Conn) {})
	s.SetInstrumentationDelay(500 * time.Microsecond)
	before := s.Clock().Now()
	if _, err := s.Dial("ads.example.com", 80); err != nil {
		t.Fatal(err)
	}
	if s.Clock().Now().Sub(before) < 500*time.Microsecond {
		t.Error("instrumentation delay was not charged")
	}

	// Without observers no delay is charged.
	s2 := newTestStack(t, false)
	s2.SetInstrumentationDelay(500 * time.Microsecond)
	before = s2.Clock().Now()
	if _, err := s2.Dial("ads.example.com", 80); err != nil {
		t.Fatal(err)
	}
	if s2.Clock().Now().Sub(before) != 0 {
		t.Error("uninstrumented dial should not advance the clock (no packet latency configured)")
	}
}

func TestSupervisorReportPath(t *testing.T) {
	s := newTestStack(t, true)
	var forwarded [][]byte
	s.SetUDPSink(func(p []byte) error {
		forwarded = append(forwarded, append([]byte(nil), p...))
		return nil
	})
	payload := []byte("report-payload")
	if err := s.SendSupervisorReport(payload); err != nil {
		t.Fatal(err)
	}
	if len(forwarded) != 1 || !bytes.Equal(forwarded[0], payload) {
		t.Error("sink did not receive the payload")
	}
	segs := parseCapture(t, s)
	if len(segs) != 1 || segs[0].Protocol != pcap.ProtoUDP {
		t.Fatalf("capture = %d packets", len(segs))
	}
	addr, port := s.CollectorEndpoint()
	if segs[0].Tuple.DstIP != addr || segs[0].Tuple.DstPort != port {
		t.Errorf("report destined to %v, want collector %v:%d", segs[0].Tuple, addr, port)
	}
	if !bytes.Equal(segs[0].Payload, payload) {
		t.Error("captured payload differs")
	}
}

func TestStatsCounters(t *testing.T) {
	s := newTestStack(t, false)
	conn, err := s.Dial("ads.example.com", 80)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.ReceiveN(5000); err != nil {
		t.Fatal(err)
	}
	if err := s.SendSupervisorReport([]byte("x")); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.TCPWireBytes == 0 || st.UDPWireBytes == 0 || st.DNSWireBytes == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
	if st.DNSWireBytes >= st.UDPWireBytes {
		t.Errorf("DNS bytes %d should be below total UDP %d (supervisor report included)",
			st.DNSWireBytes, st.UDPWireBytes)
	}
	if st.PacketCount == 0 {
		t.Error("packet count not incremented")
	}
}

func TestDialErrors(t *testing.T) {
	s := newTestStack(t, false)
	if _, err := s.Dial("nxdomain.example", 80); err == nil {
		t.Error("NXDOMAIN dial should fail")
	}
	if _, err := s.Dial("ads.example.com", 0); err == nil {
		t.Error("port 0 should fail")
	}
}

func TestDialAddrSkipsDNS(t *testing.T) {
	s := newTestStack(t, true)
	conn, err := s.DialAddr(netip.AddrFrom4([4]byte{198, 18, 9, 9}), 80)
	if err != nil {
		t.Fatal(err)
	}
	if conn.Domain() != "" {
		t.Error("direct dial should have no domain")
	}
	segs := parseCapture(t, s)
	for _, seg := range segs {
		if seg.Protocol == pcap.ProtoUDP {
			t.Error("direct dial must not emit DNS traffic")
		}
	}
}

func TestBuildAndParseHTTPRequest(t *testing.T) {
	req := BuildHTTPRequest("GET", "ads.example.com", "/fetch", "Vungle/6.2", map[string]string{"X-Req": "1"}, 0)
	info, err := ParseHTTPRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if info.Method != "GET" || info.Path != "/fetch" || info.Host != "ads.example.com" || info.UserAgent != "Vungle/6.2" {
		t.Errorf("parsed %+v", info)
	}
	// POST with body carries Content-Length and the body bytes.
	post := BuildHTTPRequest("POST", "x.com", "/up", DefaultUserAgent, nil, 128)
	if !strings.Contains(string(post), "Content-Length: 128") {
		t.Error("missing content length")
	}
	info, err = ParseHTTPRequest(post)
	if err != nil || info.Method != "POST" {
		t.Errorf("POST parse: %+v, %v", info, err)
	}
	// Defaults.
	d := BuildHTTPRequest("", "h.com", "", "", nil, 0)
	info, err = ParseHTTPRequest(d)
	if err != nil || info.Method != "GET" || info.Path != "/" {
		t.Errorf("default parse: %+v, %v", info, err)
	}
}

func TestParseHTTPRequestErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		[]byte("\x16\x03\x01 tls stuff"),
		[]byte("GET /\r\n\r\n"), // malformed request line
		[]byte("GET / HTTP/1.1\r\nNoHost: x\r\n\r\n"), // missing Host
	}
	for _, payload := range bad {
		if _, err := ParseHTTPRequest(payload); err == nil {
			t.Errorf("ParseHTTPRequest(%q) should fail", payload)
		}
	}
}

func TestExchangeUDP(t *testing.T) {
	s := newTestStack(t, true)
	if err := s.ExchangeUDP("ads.example.com", 123, 48, 48); err != nil {
		t.Fatal(err)
	}
	segs := parseCapture(t, s)
	// DNS query + response, then the NTP-style request + response.
	if len(segs) != 4 {
		t.Fatalf("capture = %d packets, want 4", len(segs))
	}
	ntp := segs[2]
	if ntp.Protocol != pcap.ProtoUDP || ntp.Tuple.DstPort != 123 || len(ntp.Payload) != 48 {
		t.Errorf("NTP request = %+v", ntp.Tuple)
	}
	if segs[3].Tuple.SrcPort != 123 || len(segs[3].Payload) != 48 {
		t.Errorf("NTP response = %+v", segs[3].Tuple)
	}
	st := s.Stats()
	if st.DNSWireBytes >= st.UDPWireBytes {
		t.Error("non-DNS UDP must count outside the DNS share")
	}
	// Validation.
	if err := s.ExchangeUDP("ads.example.com", 0, 48, 48); err == nil {
		t.Error("port 0 should fail")
	}
	if err := s.ExchangeUDP("ads.example.com", 123, 0, 48); err == nil {
		t.Error("empty request should fail")
	}
	if err := s.ExchangeUDP("nxdomain.example", 123, 48, 48); err == nil {
		t.Error("NXDOMAIN should fail")
	}
}

func TestBuildAndParseHTTPResponse(t *testing.T) {
	header := BuildHTTPResponseHeader("image/webp", 120000)
	info, err := ParseHTTPResponse(header)
	if err != nil {
		t.Fatal(err)
	}
	if info.StatusCode != 200 || info.ContentType != "image/webp" || info.ContentLength != 120000 {
		t.Errorf("parsed %+v", info)
	}
	// Default content type.
	info, err = ParseHTTPResponse(BuildHTTPResponseHeader("", 5))
	if err != nil || info.ContentType != "application/octet-stream" {
		t.Errorf("default content type: %+v, %v", info, err)
	}
}

func TestParseHTTPResponseErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		[]byte("\x16\x03\x01 tls"),
		[]byte("NOTHTTP 200 OK\r\n\r\n"),
		[]byte("HTTP/1.1 abc OK\r\n\r\n"),
	}
	for _, payload := range bad {
		if _, err := ParseHTTPResponse(payload); err == nil {
			t.Errorf("ParseHTTPResponse(%q) should fail", payload)
		}
	}
}
