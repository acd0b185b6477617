package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"libspector/internal/attribution"
	"libspector/internal/dispatch"
	"libspector/internal/nets"
	"libspector/internal/pcap"
)

// runDump implements "libspector dump", a tcpdump-lite for captures
// produced by this repository: it prints the packets, reconstructed flows,
// and DNS resolutions of a pcap file, or of the capture inside a run file
// an artifact directory holds (-artifacts), which it recognises by its
// magic and verifies whole before reading. It reads the file once and
// walks the capture in place.
func runDump(args []string) error {
	fs := flag.NewFlagSet("libspector dump", flag.ContinueOnError)
	var (
		path = fs.String("pcap", "", "capture file, or stored <sha>.run file, to inspect")
		mode = fs.String("mode", "flows", "output mode: flows, packets, dns")
		max  = fs.Int("n", 0, "limit output lines (0 = unlimited)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("-pcap is required")
	}
	capture, err := os.ReadFile(*path)
	if err != nil {
		return fmt.Errorf("reading capture: %w", err)
	}
	// A file too short to hold the magic is no run file; the pcap reader
	// reports it.
	if bytes.HasPrefix(capture, []byte(dispatch.EvidenceMagic)) {
		run, err := dispatch.DecodeEvidence(capture)
		if err != nil {
			return err
		}
		capture = run.Capture
	}

	switch *mode {
	case "packets":
		return dumpPackets(capture, *max)
	case "dns":
		return dumpDNS(capture, *max)
	case "flows":
		return dumpFlows(capture, *max)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
}

func dumpPackets(capture []byte, max int) error {
	r, err := pcap.NewReader(pcap.InPlace(capture))
	if err != nil {
		return err
	}
	count := 0
	var p pcap.Packet
	for {
		err := r.Next(&p)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		var seg pcap.Segment
		if err := pcap.DecodeSegmentInto(&seg, p.Data, p.OrigLen); err != nil {
			return err
		}
		proto := "TCP"
		detail := fmt.Sprintf("flags=%#02x seq=%d ack=%d", seg.Flags, seg.Seq, seg.Ack)
		if seg.Protocol == pcap.ProtoUDP {
			proto = "UDP"
			detail = ""
		}
		// len is the wire length and payload the wire payload; a snapped
		// record captured only caplen bytes of them, its headers.
		if len(p.Data) < p.OrigLen {
			detail += " snapped"
		}
		fmt.Printf("%s %s %-42s len=%-5d caplen=%-5d payload=%-5d %s\n",
			p.Timestamp.Format("15:04:05.000000"), proto, seg.Tuple, seg.WireLen, len(p.Data),
			seg.WireLen-len(p.Data)+len(seg.Payload), detail)
		count++
		if max > 0 && count >= max {
			break
		}
	}
	fmt.Printf("%d packets\n", count)
	return nil
}

func dumpDNS(capture []byte, max int) error {
	r, err := pcap.NewReader(pcap.InPlace(capture))
	if err != nil {
		return err
	}
	count := 0
	var p pcap.Packet
	for {
		err := r.Next(&p)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		var seg pcap.Segment
		if err := pcap.DecodeSegmentInto(&seg, p.Data, p.OrigLen); err != nil {
			return err
		}
		if seg.Protocol != pcap.ProtoUDP ||
			(seg.Tuple.DstPort != pcap.DNSPort && seg.Tuple.SrcPort != pcap.DNSPort) {
			continue
		}
		msg, err := pcap.DecodeDNS(seg.Payload)
		if err != nil {
			continue
		}
		if msg.Response {
			fmt.Printf("%s  %-40s -> %s (ttl %d)\n",
				p.Timestamp.Format("15:04:05.000000"), msg.Name, msg.Answer, msg.TTL)
		} else {
			fmt.Printf("%s  %-40s ?\n", p.Timestamp.Format("15:04:05.000000"), msg.Name)
		}
		count++
		if max > 0 && count >= max {
			break
		}
	}
	return nil
}

func dumpFlows(capture []byte, max int) error {
	sum, err := attribution.ParseCapture(pcap.InPlace(capture),
		nets.DefaultLocalAddr, nets.DefaultCollectorAddr, nets.DefaultCollectorPort)
	if err != nil {
		return err
	}
	flows := sum.Flows
	sort.Slice(flows, func(i, j int) bool { return flows[i].TotalBytes() > flows[j].TotalBytes() })
	fmt.Printf("%-44s %-32s %10s %10s %8s\n", "FLOW", "DOMAIN", "SENT", "RECEIVED", "PACKETS")
	for i, fl := range flows {
		if max > 0 && i >= max {
			break
		}
		fmt.Printf("%-44s %-32s %8d B %8d B %8d\n",
			fl.Tuple, fl.Domain, fl.BytesSent, fl.BytesReceived, fl.PacketsSent+fl.PacketsReceived)
	}
	fmt.Printf("%d flows, %d DNS queries, %d supervisor datagrams\n",
		len(flows), sum.DNSQueries, sum.SupervisorPackets)
	return nil
}
