package dispatch

import (
	"net/netip"
	"testing"
	"time"

	"libspector/internal/apk"
	"libspector/internal/dex"
	"libspector/internal/pcap"
	"libspector/internal/xposed"
)

// encodeTestAPK builds a minimal valid apk for store tests.
func encodeTestAPK(t *testing.T, pkg string, version int, dexDate time.Time) (StoreEntry, string) {
	t.Helper()
	d := dex.NewFile(dexDate)
	if err := d.AddMethod(dex.Method{Class: pkg + ".Main", Name: "onCreate", Return: "V"}); err != nil {
		t.Fatal(err)
	}
	// Add a version marker method so different versions encode differently.
	if err := d.AddMethod(dex.Method{Class: pkg + ".Main", Name: "v", Params: make([]string, 0), Return: versionDescriptor(version)}); err != nil {
		t.Fatal(err)
	}
	a := &apk.APK{
		Manifest: apk.Manifest{
			Package: pkg, VersionCode: version, Category: "TOOLS",
			MainActivity: pkg + ".Main",
		},
		Dex:     d,
		DexDate: dexDate,
	}
	encoded, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return StoreEntry{
		Package: pkg,
		Encoded: encoded,
		SHA256:  apk.Checksum(encoded),
		DexDate: dexDate,
	}, apk.Checksum(encoded)
}

func versionDescriptor(v int) string {
	if v%2 == 0 {
		return "I"
	}
	return "J"
}

func TestStoreSelectionLatestDexDate(t *testing.T) {
	s := NewStore()
	older, _ := encodeTestAPK(t, "com.app", 1, time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC))
	newer, newerSHA := encodeTestAPK(t, "com.app", 2, time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC))
	if err := s.Put(older); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(newer); err != nil {
		t.Fatal(err)
	}
	got, err := s.Select("com.app")
	if err != nil {
		t.Fatal(err)
	}
	if got.SHA256 != newerSHA {
		t.Error("Select should prefer the latest dex timestamp (§III-A)")
	}
	if s.VersionCount("com.app") != 2 {
		t.Errorf("VersionCount = %d", s.VersionCount("com.app"))
	}
}

func TestStoreSelectionDefaultDexDateFallsBackToVTScan(t *testing.T) {
	s := NewStore()
	a, _ := encodeTestAPK(t, "com.app", 1, dex.DefaultDexTime)
	a.VTScanDate = time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	b, bSHA := encodeTestAPK(t, "com.app", 2, dex.DefaultDexTime)
	b.VTScanDate = time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)
	if err := s.Put(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	got, err := s.Select("com.app")
	if err != nil {
		t.Fatal(err)
	}
	if got.SHA256 != bSHA {
		t.Error("default dex dates should fall back to the latest VT scan (§III-A)")
	}
}

func TestStoreSelectionRealDexDateBeatsDefault(t *testing.T) {
	s := NewStore()
	defDate, _ := encodeTestAPK(t, "com.app", 1, dex.DefaultDexTime)
	defDate.VTScanDate = time.Date(2019, 12, 1, 0, 0, 0, 0, time.UTC)
	real, realSHA := encodeTestAPK(t, "com.app", 2, time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC))
	if err := s.Put(defDate); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(real); err != nil {
		t.Fatal(err)
	}
	got, err := s.Select("com.app")
	if err != nil {
		t.Fatal(err)
	}
	if got.SHA256 != realSHA {
		t.Error("a real dex date beats any default-dated version")
	}
}

func TestStoreValidation(t *testing.T) {
	s := NewStore()
	if err := s.Put(StoreEntry{}); err == nil {
		t.Error("empty entry should fail")
	}
	if err := s.Put(StoreEntry{Package: "x", Encoded: []byte("junk")}); err == nil {
		t.Error("undecodable apk should fail")
	}
	entry, _ := encodeTestAPK(t, "com.app", 1, time.Now())
	entry.SHA256 = "wrong"
	if err := s.Put(entry); err == nil {
		t.Error("checksum mismatch should fail")
	}
	entry, _ = encodeTestAPK(t, "com.app", 1, time.Now())
	entry.Package = "com.other"
	if err := s.Put(entry); err == nil {
		t.Error("package mismatch should fail")
	}
	if _, err := s.Select("com.ghost"); err == nil {
		t.Error("selecting a missing package should fail")
	}
	if got := s.Packages(); len(got) != 0 {
		t.Errorf("Packages = %v, want empty", got)
	}
}

func TestCollectorReceivesAndGroupsReports(t *testing.T) {
	c, err := NewCollector(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	client, err := NewClient(c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()

	report := &xposed.Report{
		APKSHA256:   "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff",
		Tuple:       testTupleForCollector(),
		ConnectedAt: time.Now().UTC(),
		StackTrace:  []string{"java.net.Socket.connect", "com.app.X.load"},
	}
	// Five distinct reports (each connection has its own source port), as a
	// real run produces.
	var first []byte
	for i := 0; i < 5; i++ {
		r := *report
		r.Tuple.SrcPort = report.Tuple.SrcPort + uint16(i)
		payload, err := r.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = payload
		}
		if err := client.Send(payload); err != nil {
			t.Fatal(err)
		}
	}
	// A byte-identical duplicate (retry residue) is counted on the wire but
	// not grouped twice.
	if err := client.Send(first); err != nil {
		t.Fatal(err)
	}
	// Malformed datagram must be counted, not crash the loop.
	if err := client.Send([]byte("garbage")); err != nil {
		t.Fatal(err)
	}

	// Once a barrier lands, every datagram sent before it has: the test
	// reads the collector once, without polling.
	if err := c.Barrier(client, "sent"); err != nil {
		t.Fatal(err)
	}
	if total, malformed, dropped := c.Totals(); total != 6 || malformed != 1 || dropped != 0 {
		t.Fatalf("collector totals = %d/%d/%d, want 6/1/0", total, malformed, dropped)
	}
	got := c.ReportsFor(report.APKSHA256)
	if len(got) != 5 {
		t.Fatalf("ReportsFor = %d reports, want 5 (duplicate payload must not group twice)", len(got))
	}
	if got[0].Tuple != report.Tuple {
		t.Error("collected report tuple differs")
	}
	if len(c.ReportsFor("unknownsha")) != 0 {
		t.Error("unknown sha should have no reports")
	}
	// Forget clears both the group and the dedupe memory: a resent payload
	// regroups from scratch.
	c.Forget(report.APKSHA256)
	if len(c.ReportsFor(report.APKSHA256)) != 0 {
		t.Error("Forget left grouped reports behind")
	}
	if err := client.Send(first); err != nil {
		t.Fatal(err)
	}
	if err := c.Barrier(client, "resent"); err != nil {
		t.Fatal(err)
	}
	if n := len(c.ReportsFor(report.APKSHA256)); n != 1 {
		t.Fatalf("resend after Forget grouped %d reports, want 1", n)
	}
}

func testTupleForCollector() pcap.FourTuple {
	return pcap.FourTuple{
		SrcIP: netip.AddrFrom4([4]byte{10, 0, 2, 15}), SrcPort: 40000,
		DstIP: netip.AddrFrom4([4]byte{198, 18, 0, 1}), DstPort: 80,
	}
}
