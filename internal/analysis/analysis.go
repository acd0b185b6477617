// Package analysis aggregates per-run attribution results into every table
// and figure of the paper's evaluation (§IV): per-category transfer
// matrices, top-library rankings, CDFs, flow ratios, AnT prevalence,
// lib×domain heatmaps, coverage statistics, the network-only baseline
// comparison (§IV-E), and the §IV-D user-cost and energy models.
//
// All aggregation math lives in one columnar core keyed by interned symbol
// IDs (internal/symtab), folded through one Accumulator by every campaign:
// whole-corpus, per shard (sealed into a mergeable Partial), or over
// reanalyzed artifacts. Strings are resolved back out of the symbol tables
// only in the finish step, so symbol IDs never appear in rendered or
// exported output.
package analysis

import (
	"libspector/internal/corpus"
)

// DomainCategorizer resolves domains to generic categories (implemented by
// the vtclient service).
type DomainCategorizer interface {
	Categorize(domain string) corpus.DomainCategory
}

// Dataset is the name the nested benchmark module still uses for the
// finished aggregates.
//
// Deprecated: use Aggregates. The alias goes with benchmark/staged.go
// (ROADMAP item 2(a)).
type Dataset = Aggregates

// DatasetBuilder is the name the nested benchmark module still uses for
// the fold.
//
// Deprecated: use Accumulator. The alias goes with benchmark/staged.go
// (ROADMAP item 2(a)).
type DatasetBuilder = Accumulator

// NewDatasetBuilder is NewAccumulator under the benchmark module's name.
//
// Deprecated: use NewAccumulator. It goes with benchmark/staged.go (ROADMAP
// item 2(a)).
func NewDatasetBuilder(domains DomainCategorizer) (*Accumulator, error) {
	return NewAccumulator(domains)
}

// ---------------------------------------------------------------------------
// Totals.

// Totals summarizes the dataset (§IV-A opening paragraph).
type Totals struct {
	BytesSent       int64
	BytesReceived   int64
	Flows           int
	DistinctOrigins int
	DistinctDomains int
	DistinctApps    int
	// UDP accounting across runs (supervisor traffic excluded).
	UDPWireBytes int64
	DNSWireBytes int64
	TCPWireBytes int64
}

// TotalBytes is sent plus received.
func (t Totals) TotalBytes() int64 { return t.BytesSent + t.BytesReceived }

// UDPRatio is the UDP share of total traffic (the paper observes 0.52%).
func (t Totals) UDPRatio() float64 {
	denom := float64(t.TCPWireBytes + t.UDPWireBytes)
	if denom == 0 {
		return 0
	}
	return float64(t.UDPWireBytes) / denom
}

// DNSShareOfUDP is the DNS share of UDP traffic (the paper observes 97%).
func (t Totals) DNSShareOfUDP() float64 {
	if t.UDPWireBytes == 0 {
		return 0
	}
	return float64(t.DNSWireBytes) / float64(t.UDPWireBytes)
}
