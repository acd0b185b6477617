// Package attribution implements Libspector's primary contribution: joining
// Socket Supervisor reports with the packet capture by socket-pair
// parameters, determining each flow's origin-library from the call stack
// (§III-C), accounting per-flow transfer volumes from TCP packets (§III-E),
// and computing Java method coverage (§IV-C).
package attribution

import (
	"fmt"
	"io"
	"net/netip"

	"libspector/internal/pcap"
	"libspector/internal/xposed"
)

// maxStoredPayload bounds the per-flow client-payload snippet retained for
// the network-only baselines (enough for HTTP headers).
const maxStoredPayload = 2048

// Flow is one TCP connection reconstructed from the capture, oriented
// app→server.
type Flow struct {
	// Tuple is the app→server socket pair.
	Tuple pcap.FourTuple
	// Domain is the DNS name whose resolution most recently produced the
	// destination address ("" for direct-to-IP flows).
	Domain string
	// BytesSent / BytesReceived are wire bytes (IP+TCP headers plus
	// payload) per direction — the paper's volume metric sums packet
	// sizes within the stream (§III-E).
	BytesSent     int64
	BytesReceived int64
	// PacketsSent / PacketsReceived count packets per direction.
	PacketsSent     int
	PacketsReceived int
	// FirstClientPayload is the first data the app sent (truncated),
	// which baseline classifiers parse for HTTP headers.
	FirstClientPayload []byte
	// FirstServerPayload is the first data the server sent (truncated),
	// carrying the response status line and Content-Type.
	FirstServerPayload []byte

	// UserAgent is what a purely network-focused analysis can read out
	// of the flow's first request ("" when the payload is not parseable
	// HTTP, e.g. TLS); ContentType is the response MIME type. AnalyzeRun
	// extracts them once from the stored payload snippets.
	UserAgent   string
	ContentType string

	// Report is the matched Socket Supervisor report (nil if the join
	// found none).
	Report *xposed.Report
	// OriginLibrary is the attributed origin package, or the
	// "*-<domain category>" pseudo-library for builtin-only stacks.
	OriginLibrary string
	// TwoLevelLibrary is the reduced-granularity library name.
	TwoLevelLibrary string
	// BuiltinOrigin marks flows whose filtered stack was entirely
	// built-in framework code.
	BuiltinOrigin bool
}

// TotalBytes is the flow's combined wire volume.
func (f *Flow) TotalBytes() int64 { return f.BytesSent + f.BytesReceived }

// Attributed reports whether the context join matched a Socket
// Supervisor report to this flow — the condition every consumer
// (analysis fold, result store) tests before trusting OriginLibrary.
func (f *Flow) Attributed() bool { return f.Report != nil }

// CaptureSummary is the parsed form of one emulator run's pcap.
type CaptureSummary struct {
	Flows []*Flow
	// flowByTuple indexes flows by their app→server tuple, and last is
	// the flow of the previous TCP packet, checked before the map: a
	// transfer's segments and ACKs arrive back to back.
	flowByTuple map[pcap.FourTuple]*Flow
	last        *Flow

	// DNSQueries counts DNS question datagrams.
	DNSQueries int
	// DNSWireBytes / UDPWireBytes / TCPWireBytes aggregate per protocol;
	// UDPWireBytes excludes the supervisor's own reporting traffic, which
	// the paper removes from analysis (§III-E).
	DNSWireBytes        int64
	UDPWireBytes        int64
	TCPWireBytes        int64
	SupervisorWireBytes int64
	SupervisorPackets   int
	// ResolvedDomains maps addresses to the most recent DNS name that
	// resolved to them (last resolution wins — CDN addresses may serve
	// several names).
	ResolvedDomains map[netip.Addr]string
}

// FlowByTuple finds a flow by its app→server tuple.
func (c *CaptureSummary) FlowByTuple(t pcap.FourTuple) (*Flow, bool) {
	f, ok := c.flowByTuple[t]
	return f, ok
}

// ParseCapture reads a pcap capture and reconstructs flows, DNS
// associations, and traffic counters. localAddr identifies the emulated
// device; collectorAddr/collectorPort identify supervisor report traffic
// to exclude. The capture is read through pcap.NewReader, so a
// pcap.InPlace view is read without a copy; the summary never aliases
// the capture's bytes.
func ParseCapture(r io.Reader, localAddr netip.Addr, collectorAddr netip.Addr, collectorPort uint16) (*CaptureSummary, error) {
	pr, err := pcap.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("attribution: opening capture: %w", err)
	}
	sum := &CaptureSummary{
		flowByTuple:     make(map[pcap.FourTuple]*Flow),
		ResolvedDomains: make(map[netip.Addr]string),
	}
	// Zero-copy decode: one packet and one segment struct are reused for
	// the whole capture, and both alias the capture's bytes. Everything
	// retained past an iteration (payload snippets, DNS names) is copied
	// by the consume paths, so the capture is not visible outside this
	// loop.
	var (
		pkt pcap.Packet
		seg pcap.Segment
	)
	for {
		err := pr.Next(&pkt)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("attribution: reading capture: %w", err)
		}
		if err := pcap.DecodeSegmentInto(&seg, pkt.Data, pkt.OrigLen); err != nil {
			return nil, fmt.Errorf("attribution: decoding packet at %s: %w", pkt.Timestamp, err)
		}
		switch seg.Protocol {
		case pcap.ProtoUDP:
			if err := sum.consumeUDP(seg, collectorAddr, collectorPort); err != nil {
				return nil, err
			}
		case pcap.ProtoTCP:
			sum.consumeTCP(seg, localAddr)
		}
	}
	// Associate flows with domains after the full capture is processed,
	// using the resolution state at flow creation order. Our resolver map
	// is last-wins; per-flow association uses the final mapping, which is
	// correct for the simulated stack (addresses are stable within a run).
	for _, f := range sum.Flows {
		if name, ok := sum.ResolvedDomains[f.Tuple.DstIP]; ok {
			f.Domain = name
		}
	}
	return sum, nil
}

func (c *CaptureSummary) consumeUDP(seg pcap.Segment, collectorAddr netip.Addr, collectorPort uint16) error {
	isSupervisor := seg.Tuple.DstIP == collectorAddr && seg.Tuple.DstPort == collectorPort
	if isSupervisor {
		c.SupervisorWireBytes += int64(seg.WireLen)
		c.SupervisorPackets++
		return nil
	}
	c.UDPWireBytes += int64(seg.WireLen)
	if seg.Tuple.DstPort == pcap.DNSPort || seg.Tuple.SrcPort == pcap.DNSPort {
		c.DNSWireBytes += int64(seg.WireLen)
		msg, err := pcap.DecodeDNS(seg.Payload)
		if err != nil {
			return fmt.Errorf("attribution: malformed DNS datagram %s: %w", seg.Tuple, err)
		}
		if msg.Response {
			c.ResolvedDomains[msg.Answer] = msg.Name
		} else {
			c.DNSQueries++
		}
	}
	return nil
}

func (c *CaptureSummary) consumeTCP(seg pcap.Segment, localAddr netip.Addr) {
	c.TCPWireBytes += int64(seg.WireLen)
	outbound := seg.Tuple.SrcIP == localAddr
	appTuple := seg.Tuple
	if !outbound {
		appTuple = seg.Tuple.Reverse()
	}
	f := c.last
	if f == nil || f.Tuple != appTuple {
		var ok bool
		if f, ok = c.flowByTuple[appTuple]; !ok {
			f = &Flow{Tuple: appTuple}
			c.flowByTuple[appTuple] = f
			c.Flows = append(c.Flows, f)
		}
		c.last = f
	}
	if outbound {
		f.BytesSent += int64(seg.WireLen)
		f.PacketsSent++
		if len(f.FirstClientPayload) == 0 && len(seg.Payload) > 0 {
			n := len(seg.Payload)
			if n > maxStoredPayload {
				n = maxStoredPayload
			}
			f.FirstClientPayload = append([]byte(nil), seg.Payload[:n]...)
		}
	} else {
		f.BytesReceived += int64(seg.WireLen)
		f.PacketsReceived++
		if len(f.FirstServerPayload) == 0 && len(seg.Payload) > 0 {
			n := len(seg.Payload)
			if n > maxStoredPayload {
				n = maxStoredPayload
			}
			f.FirstServerPayload = append([]byte(nil), seg.Payload[:n]...)
		}
	}
}
