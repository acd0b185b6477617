package attribution

import (
	"fmt"
	"io"
	"net/netip"
	"time"

	"libspector/internal/corpus"
	"libspector/internal/dex"
	"libspector/internal/nets"
	"libspector/internal/obs"
	"libspector/internal/xposed"
)

// RunResult is the complete offline-analysis output for one app run: the
// attributed flows, coverage, and traffic counters. The analysis package
// aggregates RunResults into every figure and table.
type RunResult struct {
	AppSHA      string             `json:"app_sha"`
	AppPackage  string             `json:"app_package"`
	AppCategory corpus.AppCategory `json:"app_category"`

	Flows    []*Flow   `json:"flows"`
	Coverage Coverage  `json:"coverage"`
	Join     JoinStats `json:"join"`

	DNSQueries          int   `json:"dns_queries"`
	DNSWireBytes        int64 `json:"dns_wire_bytes"`
	UDPWireBytes        int64 `json:"udp_wire_bytes"`
	TCPWireBytes        int64 `json:"tcp_wire_bytes"`
	SupervisorWireBytes int64 `json:"supervisor_wire_bytes"`
}

// AttributedFlows returns the flows that carry an origin attribution.
func (r *RunResult) AttributedFlows() []*Flow {
	out := make([]*Flow, 0, len(r.Flows))
	for _, f := range r.Flows {
		if f.Report != nil {
			out = append(out, f)
		}
	}
	return out
}

// RunInput bundles the raw artifacts of one emulator run — exactly what
// the paper's offline analysis consumes (§II-B3): the packet capture, the
// supervisor datagrams, the method trace, and the apk's disassembly.
type RunInput struct {
	AppSHA      string
	AppPackage  string
	AppCategory corpus.AppCategory

	Capture       io.Reader
	Reports       []*xposed.Report
	Trace         map[string]struct{}
	Disassembly   *dex.Disassembly
	LocalAddr     netip.Addr
	CollectorAddr netip.Addr
	CollectorPort uint16
}

// AnalyzeRun performs the full offline per-app analysis: parse the
// capture, join reports, attribute origins, and compute coverage. This is
// the path the paper reports to take under 5 seconds per app (§II-B3).
func (a *Attributor) AnalyzeRun(in RunInput) (*RunResult, error) {
	if in.Capture == nil {
		return nil, fmt.Errorf("attribution: run input has no capture")
	}
	if a.tel != nil && !a.tel.Virtual() {
		// Wall latency of the §II-B3 offline path. Recorded only in wall
		// mode so deterministic snapshots carry no machine-dependent series.
		start := time.Now()
		defer func() {
			a.tel.Histogram(obs.MAttribWallUS, obs.LatencyBucketsUS).
				Observe(time.Since(start).Microseconds())
		}()
	}
	capture, err := ParseCapture(in.Capture, in.LocalAddr, in.CollectorAddr, in.CollectorPort)
	if err != nil {
		return nil, fmt.Errorf("attribution: analyzing %s: %w", in.AppPackage, err)
	}
	join, err := a.Attribute(capture, in.Reports, in.AppSHA)
	if err != nil {
		return nil, fmt.Errorf("attribution: attributing %s: %w", in.AppPackage, err)
	}
	// Extract the HTTP context here, on the parallel per-run path, so the
	// single-threaded analysis fold never touches payload bytes.
	for _, f := range capture.Flows {
		if len(f.FirstClientPayload) > 0 {
			if info, err := nets.ParseHTTPRequest(f.FirstClientPayload); err == nil {
				f.UserAgent = info.UserAgent
			}
		}
		if len(f.FirstServerPayload) > 0 {
			if info, err := nets.ParseHTTPResponse(f.FirstServerPayload); err == nil {
				f.ContentType = info.ContentType
			}
		}
	}
	res := &RunResult{
		AppSHA:              in.AppSHA,
		AppPackage:          in.AppPackage,
		AppCategory:         in.AppCategory,
		Flows:               capture.Flows,
		Join:                join,
		DNSQueries:          capture.DNSQueries,
		DNSWireBytes:        capture.DNSWireBytes,
		UDPWireBytes:        capture.UDPWireBytes,
		TCPWireBytes:        capture.TCPWireBytes,
		SupervisorWireBytes: capture.SupervisorWireBytes,
	}
	if in.Disassembly != nil {
		res.Coverage = ComputeCoverage(in.Trace, in.Disassembly)
	}
	a.tel.Histogram(obs.MAttribFlowsPerRun, obs.CountBuckets).
		Observe(int64(len(capture.Flows)))
	return res, nil
}
