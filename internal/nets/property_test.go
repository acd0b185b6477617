package nets

import (
	"io"
	"testing"
	"testing/quick"

	"libspector/internal/pcap"
)

// TestConnAccountingProperty checks, for random request/response sizes,
// that the payload bytes the capture's packet lengths declare match the
// connection's own accounting exactly, in both directions, and that the
// capture keeps no payload beyond each direction's first segment.
func TestConnAccountingProperty(t *testing.T) {
	check := func(reqRaw uint16, respRaw uint32) bool {
		reqSize := int(reqRaw % 5000)
		respSize := int64(respRaw % 400_000)
		cfg := Config{Resolver: NewStaticResolver(), Clock: testClock(), Capture: pcap.NewWriter(nil)}
		if err := cfg.Resolver.(*StaticResolver).Add("h.example", DefaultCollectorAddr); err != nil {
			return false
		}
		s, err := NewStack(cfg)
		if err != nil {
			return false
		}
		conn, err := s.Dial("h.example", 80)
		if err != nil {
			return false
		}
		req := make([]byte, reqSize)
		if err := conn.Send(req); err != nil {
			return false
		}
		if err := conn.ReceiveN(respSize); err != nil {
			return false
		}
		if err := conn.Close(); err != nil {
			return false
		}
		r, err := pcap.NewReader(pcap.InPlace(s.capture.Bytes()))
		if err != nil {
			return false
		}
		var in, out, inKept, outKept int64
		var p pcap.Packet
		for {
			err := r.Next(&p)
			if err == io.EOF {
				break
			}
			if err != nil {
				return false
			}
			var seg pcap.Segment
			if err := pcap.DecodeSegmentInto(&seg, p.Data, p.OrigLen); err != nil {
				return false
			}
			if seg.Protocol != pcap.ProtoTCP {
				continue
			}
			if seg.Tuple.SrcIP == s.LocalAddr() {
				out += int64(seg.WireLen - tcpHeaders)
				outKept += int64(len(seg.Payload))
			} else {
				in += int64(seg.WireLen - tcpHeaders)
				inKept += int64(len(seg.Payload))
			}
		}
		return out == int64(reqSize) && in == respSize &&
			outKept == min(out, DefaultMSS) && inKept == min(in, DefaultMSS) &&
			conn.SentPayload() == int64(reqSize) && conn.ReceivedPayload() == respSize
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
