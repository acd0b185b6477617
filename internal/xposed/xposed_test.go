package xposed

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"libspector/internal/art"
	"libspector/internal/dex"
	"libspector/internal/nets"
	"libspector/internal/pcap"
)

func sampleReport() *Report {
	return &Report{
		APKSHA256: strings.Repeat("ab", 32),
		Tuple: pcap.FourTuple{
			SrcIP: netip.AddrFrom4([4]byte{10, 0, 2, 15}), SrcPort: 40001,
			DstIP: netip.AddrFrom4([4]byte{198, 18, 0, 7}), DstPort: 443,
		},
		ConnectedAt: time.Date(2019, 7, 1, 10, 0, 0, 42000, time.UTC),
		StackTrace: []string{
			"java.net.Socket.connect",
			"com.android.okhttp.internal.Platform.connectSocket",
			"Lcom/unity3d/ads/android/cache/b;->doInBackground([Ljava/lang/String;)Ljava/lang/Object;",
			"android.os.AsyncTask$2.call",
			"java.util.concurrent.FutureTask.run",
		},
	}
}

func TestReportEncodeDecodeRoundTrip(t *testing.T) {
	r := sampleReport()
	data, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.APKSHA256 != r.APKSHA256 {
		t.Errorf("sha changed: %s", decoded.APKSHA256)
	}
	if decoded.Tuple != r.Tuple {
		t.Errorf("tuple changed: %v", decoded.Tuple)
	}
	if !decoded.ConnectedAt.Equal(r.ConnectedAt) {
		t.Errorf("timestamp changed: %v vs %v", decoded.ConnectedAt, r.ConnectedAt)
	}
	if !reflect.DeepEqual(decoded.StackTrace, r.StackTrace) {
		t.Errorf("stack trace changed: %v", decoded.StackTrace)
	}
}

// The collector decodes each datagram straight from its receive buffer,
// which the next datagram overwrites: a decoded report must own every
// byte it keeps.
func TestDecodedReportOutlivesItsBuffer(t *testing.T) {
	data, err := sampleReport().Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xAA
	}
	if want := sampleReport(); !reflect.DeepEqual(decoded, want) {
		t.Errorf("report changed with its input buffer:\n%+v\nwant\n%+v", decoded, want)
	}
}

func TestReportEncodeValidation(t *testing.T) {
	r := sampleReport()
	r.APKSHA256 = "zz"
	if _, err := r.Encode(); err == nil {
		t.Error("bad sha should fail")
	}
	r = sampleReport()
	r.StackTrace = nil
	if _, err := r.Encode(); err == nil {
		t.Error("empty stack should fail")
	}
	r = sampleReport()
	r.Tuple.SrcIP = netip.MustParseAddr("::1")
	if _, err := r.Encode(); err == nil {
		t.Error("IPv6 tuple should fail")
	}
	r = sampleReport()
	r.StackTrace = make([]string, maxReasonableFrames+1)
	for i := range r.StackTrace {
		r.StackTrace[i] = "f"
	}
	if _, err := r.Encode(); err == nil {
		t.Error("oversized stack should fail")
	}
}

func TestDecodeReportRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("LSPR"),
		[]byte("LSPR\x02\x00"), // wrong version
	}
	for _, data := range cases {
		if _, err := DecodeReport(data); err == nil {
			t.Errorf("DecodeReport(%q) should fail", data)
		}
	}
	// Truncations of a valid report must all fail.
	valid, err := sampleReport().Encode()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(valid); cut += 13 {
		if _, err := DecodeReport(valid[:cut]); err == nil {
			t.Errorf("truncated report (%d/%d bytes) decoded", cut, len(valid))
		}
	}
}

func TestReportRoundTripProperty(t *testing.T) {
	check := func(srcPort, dstPort uint16, nanos int64, frames [3]string) bool {
		st := make([]string, 0, 3)
		for _, f := range frames {
			if f == "" {
				f = "x"
			}
			st = append(st, f)
		}
		r := &Report{
			APKSHA256: strings.Repeat("0f", 32),
			Tuple: pcap.FourTuple{
				SrcIP: netip.AddrFrom4([4]byte{10, 0, 2, 15}), SrcPort: srcPort,
				DstIP: netip.AddrFrom4([4]byte{198, 18, 1, 2}), DstPort: dstPort,
			},
			ConnectedAt: time.Unix(0, nanos).UTC(),
			StackTrace:  st,
		}
		data, err := r.Encode()
		if err != nil {
			return false
		}
		decoded, err := DecodeReport(data)
		if err != nil {
			return false
		}
		return decoded.Tuple == r.Tuple && reflect.DeepEqual(decoded.StackTrace, st) &&
			decoded.ConnectedAt.Equal(r.ConnectedAt)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// testEnv assembles a stack, runtime thread, and supervisor.
func testEnv(t *testing.T) (*nets.Stack, *art.Thread, *Supervisor, *Framework, *[][]byte) {
	t.Helper()
	resolver := nets.NewStaticResolver()
	if err := resolver.Add("ads.example.com", netip.AddrFrom4([4]byte{198, 18, 0, 1})); err != nil {
		t.Fatal(err)
	}
	stack, err := nets.NewStack(nets.Config{
		Resolver: resolver,
		Clock:    nets.NewClock(time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC)),
	})
	if err != nil {
		t.Fatal(err)
	}
	var sent [][]byte
	stack.SetUDPSink(func(p []byte) error {
		sent = append(sent, append([]byte(nil), p...))
		return nil
	})

	d := dex.NewFile(time.Now())
	if err := d.AddMethod(dex.Method{
		Class: "com.unity3d.ads.android.cache.b", Name: "doInBackground",
		Params: []string{"[Ljava/lang/String;"}, Return: "Ljava/lang/Object;",
	}); err != nil {
		t.Fatal(err)
	}
	thread := &art.Thread{}
	fw, err := NewFramework(thread)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSupervisor(strings.Repeat("cd", 32), d, stack)
	if err != nil {
		t.Fatal(err)
	}
	fw.Register(sup)
	fw.Bind(stack)
	return stack, thread, sup, fw, &sent
}

func TestSupervisorEmitsTranslatedReport(t *testing.T) {
	stack, thread, sup, fw, sent := testEnv(t)
	thread.Push(art.Frame{Qualified: "java.util.concurrent.FutureTask.run", Arity: 0})
	thread.Push(art.Frame{Qualified: "com.unity3d.ads.android.cache.b.doInBackground", Arity: 1})
	thread.Push(art.Frame{Qualified: "java.net.Socket.connect", Arity: 2})

	conn, err := stack.Dial("ads.example.com", 80)
	if err != nil {
		t.Fatal(err)
	}
	if errs := fw.HookErrors(); len(errs) != 0 {
		t.Fatalf("hook errors: %v", errs)
	}
	if sup.ReportsSent() != 1 || len(*sent) != 1 {
		t.Fatalf("reports sent = %d, datagrams = %d", sup.ReportsSent(), len(*sent))
	}
	report, err := DecodeReport((*sent)[0])
	if err != nil {
		t.Fatal(err)
	}
	if report.Tuple != conn.Tuple() {
		t.Errorf("report tuple %v != conn tuple %v", report.Tuple, conn.Tuple())
	}
	if report.APKSHA256 != strings.Repeat("cd", 32) {
		t.Errorf("report sha = %s", report.APKSHA256)
	}
	// Frame resolvable in the dex is translated to a full signature.
	wantSig := "Lcom/unity3d/ads/android/cache/b;->doInBackground([Ljava/lang/String;)Ljava/lang/Object;"
	found := false
	for _, f := range report.StackTrace {
		if f == wantSig {
			found = true
		}
	}
	if !found {
		t.Errorf("translated signature missing from %v", report.StackTrace)
	}
	// Framework frames remain dotted qualified names.
	if report.StackTrace[0] != "java.net.Socket.connect" {
		t.Errorf("top frame = %s", report.StackTrace[0])
	}
	if report.StackTrace[len(report.StackTrace)-1] != "java.util.concurrent.FutureTask.run" {
		t.Errorf("bottom frame = %s", report.StackTrace[len(report.StackTrace)-1])
	}
}

func TestSupervisorOneReportPerSocket(t *testing.T) {
	stack, thread, sup, _, _ := testEnv(t)
	thread.Push(art.Frame{Qualified: "java.net.Socket.connect", Arity: 2})
	for i := 0; i < 3; i++ {
		if _, err := stack.Dial("ads.example.com", 80); err != nil {
			t.Fatal(err)
		}
	}
	if sup.ReportsSent() != 3 {
		t.Errorf("reports sent = %d, want one per socket", sup.ReportsSent())
	}
}

func TestSupervisorEmptyStackIsHookError(t *testing.T) {
	stack, _, sup, fw, _ := testEnv(t)
	// Connect with an empty thread stack: the module must fail, but the
	// connection itself must survive (hooks never break the app).
	conn, err := stack.Dial("ads.example.com", 80)
	if err != nil {
		t.Fatalf("connection must survive module failure: %v", err)
	}
	if conn == nil {
		t.Fatal("nil conn")
	}
	if errs := fw.HookErrors(); len(errs) != 1 {
		t.Errorf("hook errors = %d, want 1", len(errs))
	}
	if sup.ReportsSent() != 0 {
		t.Errorf("no report should have been sent, got %d", sup.ReportsSent())
	}
}

func TestSupervisorConstructorValidation(t *testing.T) {
	stack, _, _, _, _ := testEnv(t)
	d := dex.NewFile(time.Now())
	if _, err := NewSupervisor("short", d, stack); err == nil {
		t.Error("short sha should fail")
	}
	if _, err := NewSupervisor(strings.Repeat("ab", 32), nil, stack); err == nil {
		t.Error("nil dex should fail")
	}
	if _, err := NewSupervisor(strings.Repeat("ab", 32), d, nil); err == nil {
		t.Error("nil stack should fail")
	}
	if _, err := NewFramework(nil); err == nil {
		t.Error("nil thread should fail")
	}
}

// countingModule verifies multiple modules all receive hooks.
type countingModule struct{ calls int }

func (m *countingModule) Name() string { return "counter" }
func (m *countingModule) OnSocketConnected(*nets.Conn, []art.Frame) error {
	m.calls++
	if m.calls == 2 {
		return fmt.Errorf("synthetic module failure")
	}
	return nil
}

func TestFrameworkMultipleModules(t *testing.T) {
	stack, thread, _, fw, _ := testEnv(t)
	counter := &countingModule{}
	fw.Register(counter)
	thread.Push(art.Frame{Qualified: "java.net.Socket.connect", Arity: 2})
	for i := 0; i < 3; i++ {
		if _, err := stack.Dial("ads.example.com", 80); err != nil {
			t.Fatal(err)
		}
	}
	if counter.calls != 3 {
		t.Errorf("second module saw %d connects, want 3", counter.calls)
	}
	// One synthetic failure recorded, connections unaffected.
	if errs := fw.HookErrors(); len(errs) != 1 {
		t.Errorf("hook errors = %d, want 1", len(errs))
	}
}

func TestReportSurvivesWirePacket(t *testing.T) {
	// End-to-end: encode a report, wrap it in a UDP packet, decode the
	// packet, decode the report.
	r := sampleReport()
	payload, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	tuple := pcap.FourTuple{
		SrcIP: netip.AddrFrom4([4]byte{10, 0, 2, 15}), SrcPort: 50000,
		DstIP: nets.DefaultCollectorAddr, DstPort: nets.DefaultCollectorPort,
	}
	raw, err := pcap.EncodeUDP(tuple, payload)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := pcap.DecodeSegment(raw)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeReport(seg.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(decoded.APKSHA256), []byte(r.APKSHA256)) {
		t.Error("sha corrupted through the wire")
	}
}

// TestDecodeReportStrict pins the datagram decoder's strictness: a valid
// encoding round-trips, every proper prefix of it is rejected (no field
// may be short-read), and so is the encoding with one byte appended
// (nothing may follow the last frame).
func TestDecodeReportStrict(t *testing.T) {
	oneFrame := sampleReport()
	oneFrame.StackTrace = oneFrame.StackTrace[:1]
	emptyFrame := sampleReport()
	emptyFrame.StackTrace = []string{"java.net.Socket.connect", ""}
	for name, rep := range map[string]*Report{"sample": sampleReport(), "one frame": oneFrame, "empty last frame": emptyFrame} {
		valid, err := rep.Encode()
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeReport(valid)
		if err != nil {
			t.Fatalf("%s: valid report rejected: %v", name, err)
		}
		if re, err := decoded.Encode(); err != nil || !bytes.Equal(re, valid) {
			t.Errorf("%s: round trip changed the bytes (err %v)", name, err)
		}
		for n := 0; n < len(valid); n++ {
			if _, err := DecodeReport(valid[:n]); err == nil {
				t.Errorf("%s: prefix of %d/%d bytes decoded", name, n, len(valid))
			}
		}
		if _, err := DecodeReport(append(valid[:len(valid):len(valid)], 0)); err == nil {
			t.Errorf("%s: report with a trailing byte decoded", name)
		}
	}
}
