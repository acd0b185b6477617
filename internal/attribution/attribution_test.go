package attribution

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
	"time"

	"libspector/internal/corpus"
	"libspector/internal/dex"
	"libspector/internal/nets"
	"libspector/internal/pcap"
	"libspector/internal/xposed"
)

var (
	localAddr     = nets.DefaultLocalAddr
	collectorAddr = nets.DefaultCollectorAddr
)

// staticCategorizer maps domains to fixed categories in tests.
type staticCategorizer map[string]corpus.DomainCategory

func (s staticCategorizer) Categorize(domain string) corpus.DomainCategory {
	if c, ok := s[domain]; ok {
		return c
	}
	return corpus.DomUnknown
}

// listing1Trace is the stack trace of the paper's Listing 1, as the
// supervisor would report it (top-first, frames 2–10 and 13–14 are
// framework code, frames 11–12 translated to signatures).
func listing1Trace() []string {
	return []string{
		"java.net.Socket.connect",
		"com.android.okhttp.internal.Platform.connectSocket",
		"com.android.okhttp.Connection.connectSocket",
		"com.android.okhttp.Connection.connect",
		"com.android.okhttp.Connection.connectAndSetOwner",
		"com.android.okhttp.OkHttpClient$1.connectAndSetOwner",
		"com.android.okhttp.internal.http.HttpEngine.connect",
		"com.android.okhttp.internal.http.HttpEngine.sendRequest",
		"com.android.okhttp.internal.huc.HttpURLConnectionImpl.execute",
		"com.android.okhttp.internal.huc.HttpURLConnectionImpl.connect",
		"Lcom/unity3d/ads/android/cache/b;->a()V",
		"Lcom/unity3d/ads/android/cache/b;->doInBackground([Ljava/lang/String;)Ljava/lang/Object;",
		"android.os.AsyncTask$2.call",
		"java.util.concurrent.FutureTask.run",
	}
}

func reportWith(trace []string) *xposed.Report {
	return &xposed.Report{
		APKSHA256: strings.Repeat("ab", 32),
		Tuple: pcap.FourTuple{
			SrcIP: localAddr, SrcPort: 40000,
			DstIP: netip.AddrFrom4([4]byte{198, 18, 0, 1}), DstPort: 80,
		},
		ConnectedAt: time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC),
		StackTrace:  trace,
	}
}

func TestOriginOfListing1(t *testing.T) {
	a := NewAttributor(staticCategorizer{})
	origin, builtin, err := a.OriginOf(reportWith(listing1Trace()))
	if err != nil {
		t.Fatal(err)
	}
	if builtin {
		t.Fatal("Listing 1 has app frames; not builtin")
	}
	// §III-C: "we determine the origin-library as
	// com.unity3d.ads.android.cache" — the package of doInBackground, the
	// chronologically first non-built-in frame.
	if origin != "com.unity3d.ads.android.cache" {
		t.Errorf("origin = %q, want com.unity3d.ads.android.cache", origin)
	}
}

func TestOriginOfBuiltinOnlyStack(t *testing.T) {
	a := NewAttributor(staticCategorizer{})
	trace := []string{
		"java.net.Socket.connect",
		"com.android.okhttp.internal.Platform.connectSocket",
		"android.net.ConnectivityManager.reportNetworkConnectivity",
		"com.android.internal.os.ZygoteInit.main",
	}
	origin, builtin, err := a.OriginOf(reportWith(trace))
	if err != nil {
		t.Fatal(err)
	}
	if !builtin || origin != "" {
		t.Errorf("builtin-only stack: origin=%q builtin=%v", origin, builtin)
	}
}

func TestOriginOfAblations(t *testing.T) {
	// Without built-in filtering, the chronologically first frame wins
	// regardless — FutureTask.run's package.
	a := NewAttributor(staticCategorizer{})
	a.DisableBuiltinFilter = true
	origin, _, err := a.OriginOf(reportWith(listing1Trace()))
	if err != nil {
		t.Fatal(err)
	}
	if origin != "java.util.concurrent" {
		t.Errorf("unfiltered origin = %q, want java.util.concurrent", origin)
	}
	// Top-of-stack attribution lands on the okhttp fork... which is
	// filtered, so the first non-builtin from the top is the unity cache
	// class again — but via the a() frame.
	b := NewAttributor(staticCategorizer{})
	b.TopOfStack = true
	origin, _, err = b.OriginOf(reportWith(listing1Trace()))
	if err != nil {
		t.Fatal(err)
	}
	if origin != "com.unity3d.ads.android.cache" {
		t.Errorf("top-of-stack origin = %q", origin)
	}
	// With both ablations the raw top frame package wins.
	c := NewAttributor(staticCategorizer{})
	c.TopOfStack = true
	c.DisableBuiltinFilter = true
	origin, _, err = c.OriginOf(reportWith(listing1Trace()))
	if err != nil {
		t.Fatal(err)
	}
	if origin != "java.net" {
		t.Errorf("raw top-of-stack origin = %q, want java.net", origin)
	}
}

func TestFrameClass(t *testing.T) {
	cases := []struct {
		frame string
		want  string
	}{
		{"Lcom/unity3d/ads/b;->a()V", "com.unity3d.ads.b"},
		{"android.os.AsyncTask$2.call", "android.os.AsyncTask$2"},
		{"java.net.Socket.connect", "java.net.Socket"},
	}
	for _, tc := range cases {
		got, err := FrameClass(tc.frame)
		if err != nil || got != tc.want {
			t.Errorf("FrameClass(%q) = %q, %v; want %q", tc.frame, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "noclass", ".x", "x."} {
		if _, err := FrameClass(bad); err == nil {
			t.Errorf("FrameClass(%q) should fail", bad)
		}
	}
}

// buildCapture writes a small capture with a DNS exchange and one TCP flow.
func buildCapture(t *testing.T, tuple pcap.FourTuple, domain string, reqPayload []byte, respBytes int) []byte {
	t.Helper()
	w := pcap.NewWriter(nil)
	ts := time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC)
	write := func(raw []byte) {
		ts = ts.Add(time.Millisecond)
		if err := w.WritePacket(pcap.Packet{Timestamp: ts, Data: raw}); err != nil {
			t.Fatal(err)
		}
	}
	// DNS exchange resolving domain to the flow's destination.
	dnsTuple := pcap.FourTuple{SrcIP: localAddr, SrcPort: 39000, DstIP: nets.DefaultDNSServer, DstPort: pcap.DNSPort}
	q, err := pcap.EncodeDNS(pcap.DNSMessage{ID: 9, Name: domain})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := pcap.EncodeUDP(dnsTuple, q)
	if err != nil {
		t.Fatal(err)
	}
	write(raw)
	resp, err := pcap.EncodeDNS(pcap.DNSMessage{ID: 9, Response: true, Name: domain, Answer: tuple.DstIP, TTL: 60})
	if err != nil {
		t.Fatal(err)
	}
	raw, err = pcap.EncodeUDP(dnsTuple.Reverse(), resp)
	if err != nil {
		t.Fatal(err)
	}
	write(raw)

	// SYN / SYN-ACK / ACK.
	emit := func(tu pcap.FourTuple, flags uint8, payload []byte) {
		raw, err := pcap.EncodeTCP(tu, flags, 0, 0, payload)
		if err != nil {
			t.Fatal(err)
		}
		write(raw)
	}
	emit(tuple, pcap.FlagSYN, nil)
	emit(tuple.Reverse(), pcap.FlagSYN|pcap.FlagACK, nil)
	emit(tuple, pcap.FlagACK, nil)
	// Request and response data.
	emit(tuple, pcap.FlagPSH|pcap.FlagACK, reqPayload)
	for rem := respBytes; rem > 0; rem -= 1400 {
		n := rem
		if n > 1400 {
			n = 1400
		}
		emit(tuple.Reverse(), pcap.FlagPSH|pcap.FlagACK, bytes.Repeat([]byte{'d'}, n))
	}
	emit(tuple, pcap.FlagFIN|pcap.FlagACK, nil)
	emit(tuple.Reverse(), pcap.FlagFIN|pcap.FlagACK, nil)
	return w.Bytes()
}

func TestParseCaptureFlowReconstruction(t *testing.T) {
	rep := reportWith(listing1Trace())
	req := nets.BuildHTTPRequest("GET", "ads.example.com", "/x", "UA/1.0", nil, 0)
	capture := buildCapture(t, rep.Tuple, "ads.example.com", req, 5000)

	sum, err := ParseCapture(bytes.NewReader(capture), localAddr, collectorAddr, nets.DefaultCollectorPort)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Flows) != 1 {
		t.Fatalf("flows = %d, want 1", len(sum.Flows))
	}
	f := sum.Flows[0]
	if f.Tuple != rep.Tuple {
		t.Errorf("flow tuple = %v", f.Tuple)
	}
	if f.Domain != "ads.example.com" {
		t.Errorf("flow domain = %q", f.Domain)
	}
	if f.BytesReceived <= f.BytesSent {
		t.Errorf("received %d should exceed sent %d", f.BytesReceived, f.BytesSent)
	}
	if f.PacketsSent == 0 || f.PacketsReceived == 0 {
		t.Error("packet counters empty")
	}
	if !bytes.HasPrefix(f.FirstClientPayload, []byte("GET ")) {
		t.Error("first client payload not captured")
	}
	if sum.DNSQueries != 1 {
		t.Errorf("DNS queries = %d", sum.DNSQueries)
	}
	if sum.DNSWireBytes == 0 || sum.TCPWireBytes == 0 {
		t.Error("wire counters empty")
	}
	// Total TCP wire bytes must equal the flow's two directions.
	if sum.TCPWireBytes != f.BytesSent+f.BytesReceived {
		t.Errorf("TCP wire bytes %d != flow total %d", sum.TCPWireBytes, f.TotalBytes())
	}
}

func TestParseCaptureExcludesSupervisorTraffic(t *testing.T) {
	w := pcap.NewWriter(nil)
	supTuple := pcap.FourTuple{SrcIP: localAddr, SrcPort: 39001, DstIP: collectorAddr, DstPort: nets.DefaultCollectorPort}
	raw, err := pcap.EncodeUDP(supTuple, []byte("LSPR-payload"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(pcap.Packet{Timestamp: time.Now(), Data: raw}); err != nil {
		t.Fatal(err)
	}
	sum, err := ParseCapture(bytes.NewReader(w.Bytes()), localAddr, collectorAddr, nets.DefaultCollectorPort)
	if err != nil {
		t.Fatal(err)
	}
	if sum.UDPWireBytes != 0 {
		t.Errorf("supervisor traffic counted as UDP: %d bytes", sum.UDPWireBytes)
	}
	if sum.SupervisorPackets != 1 || sum.SupervisorWireBytes == 0 {
		t.Errorf("supervisor counters: %d packets, %d bytes", sum.SupervisorPackets, sum.SupervisorWireBytes)
	}
}

func TestAttributeJoin(t *testing.T) {
	rep := reportWith(listing1Trace())
	capture := buildCapture(t, rep.Tuple, "ads.example.com", []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"), 2000)
	sum, err := ParseCapture(bytes.NewReader(capture), localAddr, collectorAddr, nets.DefaultCollectorPort)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAttributor(staticCategorizer{"ads.example.com": corpus.DomAdvertisements})
	stats, err := a.Attribute(sum, []*xposed.Report{rep}, rep.APKSHA256)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MatchedFlows != 1 || stats.UnmatchedFlows != 0 || stats.UnmatchedReports != 0 {
		t.Errorf("join stats = %+v", stats)
	}
	f := sum.Flows[0]
	if f.OriginLibrary != "com.unity3d.ads.android.cache" {
		t.Errorf("origin = %q", f.OriginLibrary)
	}
	if f.TwoLevelLibrary != "com.unity3d" {
		t.Errorf("two-level = %q", f.TwoLevelLibrary)
	}
}

func TestAttributeChecksumMismatchRejected(t *testing.T) {
	rep := reportWith(listing1Trace())
	capture := buildCapture(t, rep.Tuple, "ads.example.com", []byte("x"), 100)
	sum, err := ParseCapture(bytes.NewReader(capture), localAddr, collectorAddr, nets.DefaultCollectorPort)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAttributor(staticCategorizer{})
	stats, err := a.Attribute(sum, []*xposed.Report{rep}, strings.Repeat("ff", 32))
	if err != nil {
		t.Fatal(err)
	}
	if stats.ChecksumMismatch != 1 || stats.MatchedFlows != 0 {
		t.Errorf("stats = %+v, want checksum mismatch", stats)
	}
}

func TestAttributeBuiltinFlowGetsPseudoLibrary(t *testing.T) {
	rep := reportWith([]string{
		"java.net.Socket.connect",
		"android.net.ConnectivityManager.check",
		"com.android.internal.os.ZygoteInit.main",
	})
	capture := buildCapture(t, rep.Tuple, "ads.example.com", []byte("x"), 100)
	sum, err := ParseCapture(bytes.NewReader(capture), localAddr, collectorAddr, nets.DefaultCollectorPort)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAttributor(staticCategorizer{"ads.example.com": corpus.DomAdvertisements})
	if _, err := a.Attribute(sum, []*xposed.Report{rep}, rep.APKSHA256); err != nil {
		t.Fatal(err)
	}
	f := sum.Flows[0]
	if !f.BuiltinOrigin {
		t.Fatal("flow should be builtin-origin")
	}
	// The Figure 3 pseudo-library style.
	if f.OriginLibrary != "*-Advertisement" {
		t.Errorf("pseudo-library = %q, want *-Advertisement", f.OriginLibrary)
	}
}

func TestUnmatchedReportCounted(t *testing.T) {
	rep := reportWith(listing1Trace())
	other := reportWith(listing1Trace())
	other.Tuple.SrcPort = 49999 // no such flow
	capture := buildCapture(t, rep.Tuple, "ads.example.com", []byte("x"), 100)
	sum, err := ParseCapture(bytes.NewReader(capture), localAddr, collectorAddr, nets.DefaultCollectorPort)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAttributor(staticCategorizer{})
	stats, err := a.Attribute(sum, []*xposed.Report{rep, other}, rep.APKSHA256)
	if err != nil {
		t.Fatal(err)
	}
	if stats.UnmatchedReports != 1 {
		t.Errorf("unmatched reports = %d, want 1", stats.UnmatchedReports)
	}
}

func TestComputeCoverage(t *testing.T) {
	d := dex.NewFile(time.Now())
	var sigs []string
	for i := 0; i < 10; i++ {
		m := dex.Method{Class: "a.B", Name: "f" + string(rune('a'+i)), Return: "V"}
		if err := d.AddMethod(m); err != nil {
			t.Fatal(err)
		}
		sigs = append(sigs, m.TypeSignature())
	}
	disasm := dex.DisassembleFile(d)
	trace := map[string]struct{}{
		sigs[0]: {}, sigs[1]: {}, sigs[2]: {},
		// Framework method in the trace but absent from the dex: must not
		// count (§IV-C).
		"Landroid/os/Looper;->loop()V": {},
	}
	cov := ComputeCoverage(trace, disasm)
	if cov.ExecutedMethods != 3 || cov.TotalMethods != 10 {
		t.Errorf("coverage = %+v", cov)
	}
	if cov.Percent() != 30 {
		t.Errorf("percent = %v, want 30", cov.Percent())
	}
	empty := Coverage{}
	if empty.Percent() != 0 {
		t.Error("zero coverage should be 0%")
	}
}

func TestAnalyzeRunEndToEnd(t *testing.T) {
	rep := reportWith(listing1Trace())
	capture := buildCapture(t, rep.Tuple, "ads.example.com", []byte("GET / HTTP/1.1\r\nHost: a\r\n\r\n"), 3000)
	d := dex.NewFile(time.Now())
	m := dex.Method{Class: "com.unity3d.ads.android.cache.b", Name: "a", Return: "V"}
	if err := d.AddMethod(m); err != nil {
		t.Fatal(err)
	}
	a := NewAttributor(staticCategorizer{"ads.example.com": corpus.DomAdvertisements})
	res, err := a.AnalyzeRun(RunInput{
		AppSHA:        rep.APKSHA256,
		AppPackage:    "com.example.app",
		AppCategory:   "TOOLS",
		Capture:       bytes.NewReader(capture),
		Reports:       []*xposed.Report{rep},
		Trace:         map[string]struct{}{m.TypeSignature(): {}},
		Disassembly:   dex.DisassembleFile(d),
		LocalAddr:     localAddr,
		CollectorAddr: collectorAddr,
		CollectorPort: nets.DefaultCollectorPort,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 1 || res.Join.MatchedFlows != 1 {
		t.Errorf("run result flows = %d, join = %+v", len(res.Flows), res.Join)
	}
	if res.Coverage.Percent() != 100 {
		t.Errorf("coverage = %v", res.Coverage.Percent())
	}
	if len(res.AttributedFlows()) != 1 {
		t.Error("AttributedFlows missed the matched flow")
	}
	if _, err := a.AnalyzeRun(RunInput{}); err == nil {
		t.Error("missing capture should fail")
	}
}

func TestBuiltinFlowWithoutDomain(t *testing.T) {
	rep := reportWith([]string{
		"java.net.Socket.connect",
		"com.android.internal.os.ZygoteInit.main",
	})
	// Capture without a DNS exchange: the flow has no domain, so the
	// pseudo-library falls back to *-Unknown.
	w := pcap.NewWriter(nil)
	ts := time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC)
	raw, err := pcap.EncodeTCP(rep.Tuple, pcap.FlagSYN, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(pcap.Packet{Timestamp: ts, Data: raw}); err != nil {
		t.Fatal(err)
	}
	sum, err := ParseCapture(bytes.NewReader(w.Bytes()), localAddr, collectorAddr, nets.DefaultCollectorPort)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAttributor(staticCategorizer{})
	if _, err := a.Attribute(sum, []*xposed.Report{rep}, rep.APKSHA256); err != nil {
		t.Fatal(err)
	}
	if got := sum.Flows[0].OriginLibrary; got != "*-Unknown" {
		t.Errorf("origin = %q, want *-Unknown", got)
	}
}

func TestAttributeWithNilCategorizer(t *testing.T) {
	rep := reportWith([]string{
		"java.net.Socket.connect",
		"com.android.internal.os.ZygoteInit.main",
	})
	capture := buildCapture(t, rep.Tuple, "ads.example.com", []byte("x"), 100)
	sum, err := ParseCapture(bytes.NewReader(capture), localAddr, collectorAddr, nets.DefaultCollectorPort)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAttributor(nil)
	if _, err := a.Attribute(sum, []*xposed.Report{rep}, rep.APKSHA256); err != nil {
		t.Fatal(err)
	}
	// No categorizer: the builtin flow still gets a pseudo-library, with
	// the unknown category label.
	if got := sum.Flows[0].OriginLibrary; got != "*-Unknown" {
		t.Errorf("origin = %q, want *-Unknown", got)
	}
}

func TestTopOfStackBuiltinOnly(t *testing.T) {
	a := NewAttributor(staticCategorizer{})
	a.TopOfStack = true
	_, builtin, err := a.OriginOf(reportWith([]string{
		"java.net.Socket.connect",
		"android.os.Looper.loop",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !builtin {
		t.Error("builtin-only stack should be builtin under top-of-stack too")
	}
}

func TestParseCaptureRejectsCorruptPackets(t *testing.T) {
	w := pcap.NewWriter(nil)
	// A packet whose declared IPv4 total length disagrees with the capture
	// length (simulating corruption).
	raw, err := pcap.EncodeTCP(reportWith(nil).Tuple, pcap.FlagSYN, 0, 0, []byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(pcap.Packet{Timestamp: time.Now(), Data: raw[:len(raw)-1]}); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseCapture(bytes.NewReader(w.Bytes()), localAddr, collectorAddr, nets.DefaultCollectorPort); err == nil {
		t.Error("corrupt packet should fail capture parsing")
	}
	// A non-pcap stream fails immediately.
	if _, err := ParseCapture(bytes.NewReader([]byte("not a pcap")), localAddr, collectorAddr, nets.DefaultCollectorPort); err == nil {
		t.Error("non-pcap input should fail")
	}
}
