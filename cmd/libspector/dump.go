package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"libspector/internal/attribution"
	"libspector/internal/nets"
	"libspector/internal/pcap"
)

// runDump implements "libspector dump", a tcpdump-lite for captures
// produced by this repository: it prints the packets, reconstructed flows,
// and DNS resolutions of a pcap file — e.g. one persisted under an
// artifact directory by -artifacts.
func runDump(args []string) error {
	fs := flag.NewFlagSet("libspector dump", flag.ContinueOnError)
	var (
		path = fs.String("pcap", "", "capture file to inspect")
		mode = fs.String("mode", "flows", "output mode: flows, packets, dns")
		max  = fs.Int("n", 0, "limit output lines (0 = unlimited)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("-pcap is required")
	}
	f, err := os.Open(*path)
	if err != nil {
		return fmt.Errorf("opening capture: %w", err)
	}
	defer func() { _ = f.Close() }()

	switch *mode {
	case "packets":
		return dumpPackets(f, *max)
	case "dns":
		return dumpDNS(f, *max)
	case "flows":
		return dumpFlows(f, *max)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
}

func dumpPackets(f *os.File, max int) error {
	r, err := pcap.NewReader(f)
	if err != nil {
		return err
	}
	count := 0
	for {
		p, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		seg, err := pcap.DecodeSegment(p.Data)
		if err != nil {
			return err
		}
		proto := "TCP"
		detail := fmt.Sprintf("flags=%#02x seq=%d ack=%d", seg.Flags, seg.Seq, seg.Ack)
		if seg.Protocol == pcap.ProtoUDP {
			proto = "UDP"
			detail = ""
		}
		fmt.Printf("%s %s %-42s len=%-5d payload=%-5d %s\n",
			p.Timestamp.Format("15:04:05.000000"), proto, seg.Tuple, seg.WireLen, len(seg.Payload), detail)
		count++
		if max > 0 && count >= max {
			break
		}
	}
	fmt.Printf("%d packets\n", count)
	return nil
}

func dumpDNS(f *os.File, max int) error {
	r, err := pcap.NewReader(f)
	if err != nil {
		return err
	}
	count := 0
	for {
		p, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		seg, err := pcap.DecodeSegment(p.Data)
		if err != nil {
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

func dumpFlows(f *os.File, max int) error {
	sum, err := attribution.ParseCapture(f,
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
