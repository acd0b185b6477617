package obs

import "fmt"

// Canonical metric names. Instrumentation sites and tests share these
// so the snapshot namespace stays consistent across pipeline layers.
const (
	// Fleet / dispatch series.
	MFleetApps          = "fleet_apps_total"
	MFleetCompleted     = "fleet_runs_completed_total"
	MFleetSkipped       = "fleet_runs_skipped_total"
	MFleetFailed        = "fleet_runs_failed_total"
	MFleetQuarantined   = "fleet_runs_quarantined_total"
	MFleetAttempts      = "fleet_attempts_total"
	MFleetRetries       = "fleet_retries_recovered_total"
	MFleetBackoffMS     = "fleet_retry_backoff_ms_total"
	MFleetWorkers       = "fleet_workers"
	MFleetWorkersBusy   = "fleet_workers_busy"
	MFleetDrainTimeouts = "fleet_collector_drain_timeouts_total"

	// Campaign durability series: outcomes replayed from the journal on
	// resume, and journaled runs requeued because their recorded evidence
	// was missing or corrupt.
	MResumeReplayed = "fleet_resume_replayed_total"
	MResumeRequeued = "fleet_resume_requeued_total"

	// Collector datagram series.
	MCollectorReceived  = "collector_datagrams_received_total"
	MCollectorMalformed = "collector_datagrams_malformed_total"
	MCollectorDropped   = "collector_datagrams_dropped_total"

	// Emulator / nets series.
	MEmulatorRuns     = "emulator_runs_total"
	MEmulatorEvents   = "emulator_monkey_events_total"
	MRunVirtualMS     = "emulator_run_virtual_ms"
	MNetsTCPBytes     = "nets_tcp_wire_bytes_total"
	MNetsUDPBytes     = "nets_udp_wire_bytes_total"
	MNetsDNSBytes     = "nets_dns_wire_bytes_total"
	MNetsPackets      = "nets_packets_total"
	MNetsDroppedGrams = "nets_supervisor_datagrams_dropped_total"
	// MNetsCaptureBytes counts the bytes the capture kept (pcap headers
	// and records included), not wire bytes: after each flow direction's
	// first payload segment a TCP record keeps only its headers.
	MNetsCaptureBytes = "nets_capture_bytes_total"
	MNetsBlockedConns = "nets_blocked_connections_total"

	// Xposed supervision series.
	MXposedReports    = "xposed_reports_sent_total"
	MXposedHookErrors = "xposed_hook_errors_total"

	// Attribution series.
	MAttribFlows            = "attribution_flows_total"
	MAttribAttributed       = "attribution_flows_attributed_total"
	MAttribBuiltin          = "attribution_flows_builtin_origin_total"
	MAttribLibrary          = "attribution_flows_library_origin_total"
	MAttribUnmatchedFlows   = "attribution_unmatched_flows_total"
	MAttribUnmatchedReports = "attribution_unmatched_reports_total"
	MAttribChecksumMismatch = "attribution_checksum_mismatch_total"
	MAttribFlowsPerRun      = "attribution_flows_per_run"
	MAttribWallUS           = "attribution_wall_us"

	// Analysis fold series.
	MAnalysisFolds       = "analysis_folds_total"
	MAnalysisFlowsFolded = "analysis_flows_folded_total"

	// Event-plane series. MBusDropped counts events lost to the
	// slow-consumer drop policy (see Bus); it is registered lazily on
	// the first actual drop so an idle bus never perturbs snapshot
	// byte-identity.
	MBusDropped = "bus_events_dropped_total"

	// Supervision series, owned by the campaign coordinator's registry
	// (never a shard's): takeovers of dead shards across the whole
	// campaign — including prior coordinator incarnations restored from
	// the WAL — and shards declared dead for passing /healthz while their
	// progress watermark sat still past the stall deadline.
	MCoordTakeovers = "coordinator_takeovers_total"
	MCoordStalls    = "coordinator_stalls_detected_total"
)

// MAttribBuiltinClass names the per-origin-class counter for flows
// attributed to the "*-<domain category>" pseudo-libraries.
func MAttribBuiltinClass(class string) string {
	return "attribution_flows_origin_class_" + class + "_total"
}

// MCoordShardAttempts names the per-shard attempt gauge on the
// coordinator registry: how many attempts (1 + takeovers) shard i has
// consumed, surviving coordinator restarts via the WAL.
func MCoordShardAttempts(i int) string {
	return fmt.Sprintf("coordinator_shard_%03d_attempts", i)
}

// Span names, one per pipeline stage (DESIGN.md §6 span taxonomy).
const (
	SpanDispatch     = "dispatch"
	SpanEmulatorBoot = "emulator-boot"
	SpanMonkeyRun    = "monkey-run"
	SpanXposed       = "xposed-supervision"
	SpanPcapCapture  = "pcap-capture"
	SpanDrain        = "collector-drain"
	SpanAttribution  = "attribution"
	SpanAnalysisFold = "analysis-fold"
)

// Shared bucket layouts.
var (
	// LatencyBucketsUS covers 1µs..~8.4s in doubling steps for
	// host-side latency histograms.
	LatencyBucketsUS = ExpBuckets(1, 2, 24)
	// DurationBucketsMS covers 1ms..~17min of virtual device time.
	DurationBucketsMS = ExpBuckets(1, 2, 20)
	// CountBuckets covers small per-run cardinalities (flows, reports).
	CountBuckets = ExpBuckets(1, 2, 16)
)
