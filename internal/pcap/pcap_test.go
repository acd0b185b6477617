package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net/netip"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

var (
	testSrc = netip.AddrFrom4([4]byte{10, 0, 2, 15})
	testDst = netip.AddrFrom4([4]byte{198, 18, 0, 1})
)

func testTuple() FourTuple {
	return FourTuple{SrcIP: testSrc, SrcPort: 40000, DstIP: testDst, DstPort: 443}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	w := NewWriter(nil)
	base := time.Date(2019, 7, 1, 12, 0, 0, 123456000, time.UTC)
	var packets []Packet
	for i := 0; i < 5; i++ {
		raw, err := EncodeTCP(testTuple(), FlagACK, uint32(i), 0, []byte{byte(i), byte(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		p := Packet{Timestamp: base.Add(time.Duration(i) * time.Millisecond), Data: raw}
		packets = append(packets, p)
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	got := readAll(t, bytes.NewReader(w.Bytes()))
	if len(got) != len(packets) {
		t.Fatalf("read %d packets, want %d", len(got), len(packets))
	}
	for i := range got {
		if !bytes.Equal(got[i].Data, packets[i].Data) {
			t.Errorf("packet %d data changed", i)
		}
		// Timestamps round to microseconds in the pcap format.
		if got[i].Timestamp.Sub(packets[i].Timestamp) > time.Microsecond {
			t.Errorf("packet %d timestamp drifted: %v vs %v", i, got[i].Timestamp, packets[i].Timestamp)
		}
	}
}

// readAll reads every packet of src.
func readAll(t *testing.T, src io.Reader) []Packet {
	t.Helper()
	r, err := NewReader(src)
	if err != nil {
		t.Fatal(err)
	}
	var out []Packet
	for {
		var p Packet
		err := r.Next(&p)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
}

// Read as a plain io.Reader, a View yields its bytes like bytes.Reader;
// handed to NewReader it is consumed whole, and the packets alias it. Any
// other source is read into a buffer of the reader's own.
func TestViewReadsLikeBytesReader(t *testing.T) {
	capture := encodeAllocCapture(t, 3, false)
	got, err := io.ReadAll(InPlace(capture))
	if err != nil || !bytes.Equal(got, capture) {
		t.Fatalf("io.ReadAll(InPlace) = %d bytes, %v; want the %d-byte capture", len(got), err, len(capture))
	}
	v := InPlace(capture)
	first := readAll(t, v)[0]
	if n, err := v.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("the view still yields %d bytes (%v) after NewReader took it", n, err)
	}
	inCapture := func(p Packet) bool { return &p.Data[0] == &capture[globalHeaderLen+recordHeaderLen] }
	if !inCapture(first) {
		t.Fatal("a packet read from a View does not alias the capture")
	}
	if inCapture(readAll(t, bytes.NewReader(capture))[0]) {
		t.Fatal("a packet read from a bytes.Reader aliases the caller's capture")
	}
}

func TestEmptyCaptureIsValid(t *testing.T) {
	r, err := NewReader(bytes.NewReader(NewWriter(nil).Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Next(&Packet{}); err != io.EOF {
		t.Errorf("empty capture Next = %v, want EOF", err)
	}
}

// forgedCapture is a 40-byte pcap: a global header whose snap length is
// 0xffffffff, then one record header declaring recLen bytes of packet
// that the file does not hold.
func forgedCapture(recLen uint32) []byte {
	b := NewWriter(nil).Bytes()
	binary.LittleEndian.PutUint32(b[16:20], 0xffffffff)
	var rec [recordHeaderLen]byte
	binary.LittleEndian.PutUint32(rec[8:12], recLen)
	binary.LittleEndian.PutUint32(rec[12:16], recLen)
	return append(b, rec[:]...)
}

// A forged record length must fail typed, whatever the source, without
// the reader allocating what it declares: whatever the snap length says,
// no raw IPv4 packet exceeds 65 535 bytes, and a capture cannot hold a
// record longer than what is left of it.
func TestReaderRejectsForgedRecordLength(t *testing.T) {
	sized := func(b []byte) io.Reader { return bytes.NewReader(b) }
	cases := []struct {
		name   string
		recLen uint32
		src    func([]byte) io.Reader
		want   error
	}{
		{"1GiB, sized source", 1 << 30, sized, ErrCorruptCapture},
		{"4GiB-1, sized source", 0xffffffff, sized, ErrCorruptCapture},
		{"1GiB, unsized source", 1 << 30, func(b []byte) io.Reader { return io.MultiReader(bytes.NewReader(b)) }, ErrCorruptCapture},
		// Within the IPv4 bound, so only the bytes-left check refuses it.
		{"60000, sized source", 60000, sized, io.ErrUnexpectedEOF},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewReader(tc.src(forgedCapture(tc.recLen)))
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = r.Next(&Packet{})
			runtime.ReadMemStats(&after)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Next = %v, want %v", err, tc.want)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Fatalf("rejecting the record allocated %d bytes, want < 1 MiB", got)
			}
		})
	}
}

// A snapped record keeps the IPv4 and TCP headers of the whole packet,
// checksum and total length included, and reads back with the packet's
// wire length.
func TestSnappedRecordRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte("abcdefghijklmnopqrstuvwxyz"), 50)
	whole, err := EncodeTCP(testTuple(), FlagPSH|FlagACK, 7, 9, payload)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(nil)
	hdrLen, _ := TCPLen(testTuple(), 0)
	pkt, err := w.Reserve(time.Unix(5, 0), hdrLen, len(whole))
	if err != nil {
		t.Fatal(err)
	}
	PutTCP(pkt, testTuple(), FlagPSH|FlagACK, 7, 9, payload, SumOf(payload))
	if !bytes.Equal(pkt, whole[:hdrLen]) {
		t.Fatalf("snapped headers % x, want the whole packet's % x", pkt, whole[:hdrLen])
	}
	if _, err := w.Reserve(time.Unix(5, 0), 41, 40); err == nil {
		t.Error("Reserve kept more bytes than the packet has")
	}
	p := readAll(t, InPlace(w.Bytes()))[0]
	if len(p.Data) != hdrLen || p.OrigLen != len(whole) {
		t.Fatalf("read %d of %d bytes, want %d of %d", len(p.Data), p.OrigLen, hdrLen, len(whole))
	}
	var seg Segment
	if err := DecodeSegmentInto(&seg, p.Data, p.OrigLen); err != nil {
		t.Fatal(err)
	}
	if seg.WireLen != len(whole) || len(seg.Payload) != 0 || seg.Seq != 7 || seg.Ack != 9 || seg.Tuple != testTuple() {
		t.Fatalf("decoded %+v", seg)
	}
}

// rawCapture is a capture of one record with the given header lengths
// around data, written by hand so that it can hold what Writer refuses.
func rawCapture(data []byte, capLen, origLen uint32) []byte {
	b := NewWriter(nil).Bytes()
	var rec [recordHeaderLen]byte
	binary.LittleEndian.PutUint32(rec[8:12], capLen)
	binary.LittleEndian.PutUint32(rec[12:16], origLen)
	return append(append(b, rec[:]...), data...)
}

// A record shorter than its packet is accepted only as the whole IPv4 and
// TCP headers of a packet whose IPv4 total length is the record's
// original length; anything else fails typed.
func TestReaderShortRecords(t *testing.T) {
	whole, err := EncodeTCP(testTuple(), FlagACK, 0, 0, make([]byte, 100))
	if err != nil {
		t.Fatal(err)
	}
	n := uint32(len(whole))
	// withOptions declares a 24-byte TCP header: 4 bytes of options.
	withOptions := bytes.Clone(whole)
	withOptions[20+12] = 6 << 4
	wrongTotal := bytes.Clone(whole)
	binary.BigEndian.PutUint16(wrongTotal[2:4], uint16(n-1))
	dgram, err := EncodeUDP(testTuple(), make([]byte, 100))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		capture []byte
		ok      bool
	}{
		{"headers whole", rawCapture(whole[:40], 40, n), true},
		{"headers and some payload", rawCapture(whole[:70], 70, n), true},
		{"options whole", rawCapture(withOptions[:44], 44, n), true},
		{"cut inside the IPv4 header", rawCapture(whole[:12], 12, n), false},
		{"cut inside the TCP header", rawCapture(whole[:30], 30, n), false},
		{"cut inside the TCP options", rawCapture(withOptions[:40], 40, n), false},
		{"captured beyond original", rawCapture(whole, n, n-1), false},
		{"original is not the IPv4 total length", rawCapture(wrongTotal[:40], 40, n), false},
		{"short UDP record", rawCapture(dgram[:28], 28, uint32(len(dgram))), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewReader(InPlace(tc.capture))
			if err != nil {
				t.Fatal(err)
			}
			var p Packet
			err = r.Next(&p)
			if err == nil {
				var seg Segment
				if err := DecodeSegmentInto(&seg, p.Data, p.OrigLen); err != nil || seg.WireLen != int(n) {
					t.Fatalf("accepted record decodes to wire length %d, %v; want %d", seg.WireLen, err, n)
				}
			}
			if tc.ok && err != nil {
				t.Fatalf("valid short record refused: %v", err)
			}
			if !tc.ok && !errors.Is(err, ErrCorruptCapture) {
				t.Fatalf("Next = %v, want ErrCorruptCapture", err)
			}
		})
	}
}

func TestReaderRejectsBadHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("short"))); err == nil {
		t.Error("short header should fail")
	}
	bad := make([]byte, 24)
	if _, err := NewReader(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic should fail")
	}
}

func TestFourTupleOperations(t *testing.T) {
	tup := testTuple()
	rev := tup.Reverse()
	if rev.SrcIP != tup.DstIP || rev.SrcPort != tup.DstPort {
		t.Errorf("Reverse = %v", rev)
	}
	if rev.Reverse() != tup {
		t.Error("double reverse should be identity")
	}
	if tup.Canonical() != rev.Canonical() {
		t.Error("both directions must share a canonical tuple")
	}
	if tup.String() == "" {
		t.Error("String should render")
	}
}

func TestFourTupleCanonicalProperty(t *testing.T) {
	check := func(a, b [4]byte, pa, pb uint16) bool {
		tup := FourTuple{
			SrcIP: netip.AddrFrom4(a), SrcPort: pa,
			DstIP: netip.AddrFrom4(b), DstPort: pb,
		}
		return tup.Canonical() == tup.Reverse().Canonical()
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestTCPEncodeDecodeRoundTrip(t *testing.T) {
	payload := []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")
	raw, err := EncodeTCP(testTuple(), FlagPSH|FlagACK, 1000, 2000, payload)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := DecodeSegment(raw)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Protocol != ProtoTCP {
		t.Errorf("protocol = %d", seg.Protocol)
	}
	if seg.Tuple != testTuple() {
		t.Errorf("tuple = %v", seg.Tuple)
	}
	if seg.Seq != 1000 || seg.Ack != 2000 {
		t.Errorf("seq/ack = %d/%d", seg.Seq, seg.Ack)
	}
	if seg.Flags != FlagPSH|FlagACK {
		t.Errorf("flags = %#x", seg.Flags)
	}
	if !bytes.Equal(seg.Payload, payload) {
		t.Error("payload changed")
	}
	if seg.WireLen != len(raw) {
		t.Errorf("WireLen = %d, want %d", seg.WireLen, len(raw))
	}
}

func TestUDPEncodeDecodeRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5}
	raw, err := EncodeUDP(testTuple(), payload)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := DecodeSegment(raw)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Protocol != ProtoUDP {
		t.Errorf("protocol = %d", seg.Protocol)
	}
	if !bytes.Equal(seg.Payload, payload) {
		t.Error("payload changed")
	}
}

func TestTCPRoundTripProperty(t *testing.T) {
	check := func(flags uint8, seq, ack uint32, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		raw, err := EncodeTCP(testTuple(), flags, seq, ack, payload)
		if err != nil {
			return false
		}
		seg, err := DecodeSegment(raw)
		if err != nil {
			return false
		}
		return seg.Seq == seq && seg.Ack == ack && seg.Flags == flags &&
			bytes.Equal(seg.Payload, payload)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIPv4ChecksumValid(t *testing.T) {
	raw, err := EncodeTCP(testTuple(), FlagSYN, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Recomputing the header checksum over the header with its checksum
	// field included must yield zero (RFC 1071 verification).
	if got := ipChecksum(raw[:20]); got != 0 {
		t.Errorf("IPv4 header checksum verification = %#x, want 0", got)
	}
}

func TestDecodeSegmentErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x45},                      // truncated
		bytes.Repeat([]byte{0}, 20), // version 0
	}
	for _, data := range cases {
		if _, err := DecodeSegment(data); err == nil {
			t.Errorf("DecodeSegment(%v) should fail", data)
		}
	}
	// Wrong total length.
	raw, err := EncodeTCP(testTuple(), FlagACK, 0, 0, []byte("xx"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSegment(raw[:len(raw)-1]); err == nil {
		t.Error("total-length mismatch should fail")
	}
	var seg Segment
	if err := DecodeSegmentInto(&seg, raw, len(raw)+1); err == nil {
		t.Error("total length short of the original length should fail")
	}
	if err := DecodeSegmentInto(&seg, raw, len(raw)-1); err == nil {
		t.Error("more bytes captured than the packet has should fail")
	}
}

func TestEncodeRejectsOversizedPacket(t *testing.T) {
	if _, err := EncodeTCP(testTuple(), FlagACK, 0, 0, make([]byte, 70000)); err == nil {
		t.Error("oversized packet should fail")
	}
}

func TestEncodeRejectsNonIPv4(t *testing.T) {
	tup := testTuple()
	tup.SrcIP = netip.MustParseAddr("::1")
	if _, err := EncodeTCP(tup, FlagACK, 0, 0, nil); err == nil {
		t.Error("IPv6 tuple should fail")
	}
}

func TestDNSQueryResponseRoundTrip(t *testing.T) {
	q := DNSMessage{ID: 42, Name: "ads.example.com"}
	raw, err := EncodeDNS(q)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeDNS(raw)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.ID != 42 || decoded.Response || decoded.Name != q.Name {
		t.Errorf("query round trip: %+v", decoded)
	}

	r := DNSMessage{ID: 42, Response: true, Name: "ads.example.com", Answer: testDst, TTL: 300}
	raw, err = EncodeDNS(r)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err = DecodeDNS(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !decoded.Response || decoded.Answer != testDst || decoded.TTL != 300 {
		t.Errorf("response round trip: %+v", decoded)
	}
}

func TestDNSErrors(t *testing.T) {
	if _, err := EncodeDNS(DNSMessage{Name: ""}); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := EncodeDNS(DNSMessage{Name: "a..b"}); err == nil {
		t.Error("empty label should fail")
	}
	longLabel := string(bytes.Repeat([]byte{'a'}, 64)) + ".com"
	if _, err := EncodeDNS(DNSMessage{Name: longLabel}); err == nil {
		t.Error("63-byte label limit should be enforced")
	}
	if _, err := EncodeDNS(DNSMessage{Name: "x.com", Response: true}); err == nil {
		t.Error("response without IPv4 answer should fail")
	}
	if _, err := DecodeDNS([]byte{1, 2, 3}); err == nil {
		t.Error("truncated message should fail")
	}
}

func TestDNSNameRoundTripProperty(t *testing.T) {
	check := func(labels [3]uint8) bool {
		name := ""
		for i, l := range labels {
			n := int(l%20) + 1
			if i > 0 {
				name += "."
			}
			name += string(bytes.Repeat([]byte{byte('a' + i)}, n))
		}
		raw, err := EncodeDNS(DNSMessage{ID: 1, Name: name})
		if err != nil {
			return false
		}
		decoded, err := DecodeDNS(raw)
		return err == nil && decoded.Name == name
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestWriterRejectsOversnapPacket(t *testing.T) {
	w := NewWriter(nil)
	err := w.WritePacket(Packet{Timestamp: time.Now(), Data: make([]byte, DefaultSnapLen+1)})
	if err == nil {
		t.Error("packet above snap length should be rejected")
	}
}
