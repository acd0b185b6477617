// Package analysis aggregates per-run attribution results into every table
// and figure of the paper's evaluation (§IV): per-category transfer
// matrices, top-library rankings, CDFs, flow ratios, AnT prevalence,
// lib×domain heatmaps, coverage statistics, and the §IV-D user-cost and
// energy models.
//
// All aggregation math lives in one columnar core keyed by interned symbol
// IDs (internal/symtab). The streaming Accumulator and the batch Dataset
// are two shells over that core; strings are resolved back out of the
// symbol tables only at the edges (record accessors, reporting, export), so
// symbol IDs never appear in rendered or exported output.
package analysis

import (
	"sort"

	"libspector/internal/attribution"
	"libspector/internal/corpus"
	"libspector/internal/dispatch"
	"libspector/internal/libradar"
	"libspector/internal/symtab"
)

// DomainCategorizer resolves domains to generic categories (implemented by
// the vtclient service).
type DomainCategorizer interface {
	Categorize(domain string) corpus.DomainCategory
}

// RecordFlags packs a FlowRecord's boolean facts.
type RecordFlags uint8

const (
	// FlagBuiltin marks pseudo origin-libraries attributed to platform
	// code rather than a detector-resolvable library.
	FlagBuiltin RecordFlags = 1 << iota
	// FlagAnT marks non-builtin origins on the Li et al. AnT list.
	FlagAnT
	// FlagCommonLib marks non-builtin origins on the common-library list
	// (disjoint from AnT, which takes precedence).
	FlagCommonLib
)

// FlowRecord is one attributed flow in compact symbol form. All entity
// references are symbol IDs into the owning Dataset's tables; use the
// Dataset accessors (AppSHA, Origin, Domain, …) to resolve strings and
// categories. Sixteen bytes of strings-per-flow in the old record layout
// become four-byte symbols here, which is what lets a Dataset hold
// corpus-scale record sets.
type FlowRecord struct {
	App      symtab.Sym
	AppCat   symtab.Sym
	Origin   symtab.Sym
	TwoLevel symtab.Sym
	Domain   symtab.Sym

	// HTTP context extracted from the flow's first request/response
	// payloads ("" / None when not parseable HTTP, e.g. TLS).
	UserAgent   symtab.Sym
	HTTPHost    symtab.Sym
	ContentType symtab.Sym

	BytesSent     int64
	BytesReceived int64

	Flags RecordFlags
}

// TotalBytes is the flow's combined volume.
func (r *FlowRecord) TotalBytes() int64 { return r.BytesSent + r.BytesReceived }

// Builtin reports whether the flow's origin is a platform pseudo-library.
func (r *FlowRecord) Builtin() bool { return r.Flags&FlagBuiltin != 0 }

// IsAnT reports membership of the origin in the AnT list.
func (r *FlowRecord) IsAnT() bool { return r.Flags&FlagAnT != 0 }

// IsCommonLib reports membership of the origin in the common-library list.
func (r *FlowRecord) IsCommonLib() bool { return r.Flags&FlagCommonLib != 0 }

// Dataset is the analysis-ready view over a fleet run: the materialized
// per-flow records plus the frozen aggregates computed by the shared core.
// Unlike earlier revisions it does not retain the runs themselves — what
// the figures need (coverage, run counts, wire bytes) is folded into the
// aggregates, so memory stays proportional to the record set.
type Dataset struct {
	Records []FlowRecord
	// UnattributedFlows counts flows without a supervisor report.
	UnattributedFlows int

	syms   *Symbols
	agg    *Aggregates
	appPkg []symtab.Sym // app sym → package-name sym (strings table)
}

// DatasetBuilder materializes a Dataset incrementally. It implements
// dispatch.Sink, so the batch view can be built in one pass over the run
// stream — the same pass the Accumulator folds — instead of retaining runs
// for a second sweep.
type DatasetBuilder struct {
	core    *core
	records []FlowRecord
	order   []int // appIndex per record, for deterministic final order
	appPkg  []symtab.Sym
	// Per-field intern memos for the HTTP context columns. The three
	// fields share one strings table, so the table's own last-hit memo
	// thrashes when a flow carries all three; these keep each column's
	// repeat hits (a run's flows usually share one user agent) to a
	// string compare.
	lastUA, lastHost, lastCType      string
	lastUASym, lastHostSym, lastCSym symtab.Sym
}

// NewDatasetBuilder builds an empty builder resolving domain categories
// through the given service.
func NewDatasetBuilder(domains DomainCategorizer) (*DatasetBuilder, error) {
	c, err := newCore(domains)
	if err != nil {
		return nil, err
	}
	return &DatasetBuilder{core: c}, nil
}

// Consume implements dispatch.Sink.
func (b *DatasetBuilder) Consume(ev dispatch.RunEvent) error {
	if ev.Kind != dispatch.EventRun || ev.Run == nil {
		return nil
	}
	return b.Observe(ev.AppIndex, ev.Run)
}

// Observe folds one run and materializes its attributed flows.
func (b *DatasetBuilder) Observe(appIndex int, run *attribution.RunResult) error {
	pkgSym := symtab.None
	interned := false
	return b.core.observe(appIndex, run, func(rec *FlowRecord, f *attribution.Flow) {
		if !interned {
			interned = true
			pkgSym = b.core.syms.strings.Intern(run.AppPackage)
		}
		if int(rec.App) >= len(b.appPkg) {
			b.appPkg = grow(b.appPkg, int(rec.App)+1)
		}
		b.appPkg[rec.App] = pkgSym
		if f.UserAgent != "" {
			if f.UserAgent != b.lastUA {
				b.lastUA = f.UserAgent
				b.lastUASym = b.core.syms.strings.Intern(f.UserAgent)
			}
			rec.UserAgent = b.lastUASym
		}
		if f.HTTPHost != "" {
			if f.HTTPHost != b.lastHost {
				b.lastHost = f.HTTPHost
				b.lastHostSym = b.core.syms.strings.Intern(f.HTTPHost)
			}
			rec.HTTPHost = b.lastHostSym
		}
		if f.ContentType != "" {
			if f.ContentType != b.lastCType {
				b.lastCType = f.ContentType
				b.lastCSym = b.core.syms.strings.Intern(f.ContentType)
			}
			rec.ContentType = b.lastCSym
		}
		b.records = append(b.records, *rec)
		b.order = append(b.order, appIndex)
	})
}

// Finish freezes the aggregates and returns the Dataset. Records are
// ordered by app index (stably, preserving flow order within a run), so a
// streamed build yields the same Dataset as a batch build regardless of
// completion order.
func (b *DatasetBuilder) Finish(detector *libradar.Detector) (*Dataset, error) {
	ag, err := b.core.finish(detector)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(b.records))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return b.order[idx[i]] < b.order[idx[j]] })
	recs := make([]FlowRecord, len(b.records))
	for i, j := range idx {
		recs[i] = b.records[j]
	}
	return &Dataset{
		Records:           recs,
		UnattributedFlows: b.core.unattributed,
		syms:              b.core.syms,
		agg:               ag,
		appPkg:            b.appPkg,
	}, nil
}

// ---------------------------------------------------------------------------
// String/category resolution — the edge where symbol IDs become strings.

// AppSHA resolves a record's app identifier.
func (ds *Dataset) AppSHA(r *FlowRecord) string { return ds.syms.apps.String(r.App) }

// AppPackage resolves a record's app package name.
func (ds *Dataset) AppPackage(r *FlowRecord) string {
	return ds.syms.strings.String(ds.appPkg[r.App])
}

// AppCategory resolves a record's Play Store app category.
func (ds *Dataset) AppCategory(r *FlowRecord) corpus.AppCategory {
	return ds.syms.appCategory(r.AppCat)
}

// Origin resolves a record's origin-library name.
func (ds *Dataset) Origin(r *FlowRecord) string { return ds.syms.origins.String(r.Origin) }

// TwoLevel resolves a record's 2-level library name.
func (ds *Dataset) TwoLevel(r *FlowRecord) string { return ds.syms.twoLevels.String(r.TwoLevel) }

// Domain resolves a record's DNS name ("" when the flow had none).
func (ds *Dataset) Domain(r *FlowRecord) string { return ds.syms.domains.String(r.Domain) }

// UserAgent resolves a record's HTTP User-Agent ("" when not parseable).
func (ds *Dataset) UserAgent(r *FlowRecord) string { return ds.syms.strings.String(r.UserAgent) }

// HTTPHost resolves a record's HTTP Host header ("" when not parseable).
func (ds *Dataset) HTTPHost(r *FlowRecord) string { return ds.syms.strings.String(r.HTTPHost) }

// ContentType resolves a record's response MIME type ("" when not
// parseable).
func (ds *Dataset) ContentType(r *FlowRecord) string { return ds.syms.strings.String(r.ContentType) }

// LibCategory resolves a record's origin-library category. Builtin pseudo
// origins have no LibRadar category.
func (ds *Dataset) LibCategory(r *FlowRecord) corpus.LibraryCategory {
	if r.Builtin() {
		return corpus.LibUnknown
	}
	return ds.agg.originCats[r.Origin]
}

// DomainCategory resolves a record's domain category (DomUnknown for flows
// without a DNS name).
func (ds *Dataset) DomainCategory(r *FlowRecord) corpus.DomainCategory {
	return ds.syms.domainCategoryOf(r.Domain)
}

// Aggregates exposes the frozen figure/table aggregates computed alongside
// the records.
func (ds *Dataset) Aggregates() *Aggregates { return ds.agg }

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

// ---------------------------------------------------------------------------
// Figure/table API — delegates to the shared aggregates, so the batch and
// streaming paths literally run the same math.

// ComputeTotals returns the §IV-A headline totals.
func (ds *Dataset) ComputeTotals() Totals { return ds.agg.ComputeTotals() }

// Fig2CategoryTransfer returns the Figure 2 matrix.
func (ds *Dataset) Fig2CategoryTransfer() *CategoryMatrix { return ds.agg.Fig2CategoryTransfer() }

// Fig3TopOrigins ranks origin-libraries by transfer volume.
func (ds *Dataset) Fig3TopOrigins(n int) []RankedLibrary { return ds.agg.Fig3TopOrigins(n) }

// Fig3TopTwoLevel ranks 2-level libraries by transfer volume.
func (ds *Dataset) Fig3TopTwoLevel(n int) []RankedLibrary { return ds.agg.Fig3TopTwoLevel(n) }

// TopShare computes the transfer share of the top-n ranking entries.
func (ds *Dataset) TopShare(n int, twoLevel bool) float64 { return ds.agg.TopShare(n, twoLevel) }

// Fig4CDF returns the six Figure 4 series.
func (ds *Dataset) Fig4CDF() []CDFSeries { return ds.agg.Fig4CDF() }

// Fig5FlowRatios returns the three Figure 5 curves.
func (ds *Dataset) Fig5FlowRatios() []RatioSeries { return ds.agg.Fig5FlowRatios() }

// Fig6AnTShares returns the Figure 6 prevalence statistics.
func (ds *Dataset) Fig6AnTShares() *AnTStats { return ds.agg.Fig6AnTShares() }

// Fig7Averages returns the Figure 7 per-category averages.
func (ds *Dataset) Fig7Averages() *CategoryAverages { return ds.agg.Fig7Averages() }

// Fig8AppCategoryAverages returns bytes per app for each category.
func (ds *Dataset) Fig8AppCategoryAverages() map[corpus.AppCategory]float64 {
	return ds.agg.Fig8AppCategoryAverages()
}

// Fig9Heatmap returns the library×domain category matrix.
func (ds *Dataset) Fig9Heatmap() *Heatmap { return ds.agg.Fig9Heatmap() }

// Fig10Coverage returns the per-app coverage statistics.
func (ds *Dataset) Fig10Coverage() *CoverageStats { return ds.agg.Fig10Coverage() }

// ComputeHalfTraffic returns the §IV-A concentration counts.
func (ds *Dataset) ComputeHalfTraffic() HalfTrafficCounts { return ds.agg.ComputeHalfTraffic() }
