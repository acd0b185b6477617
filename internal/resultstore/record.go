// Package resultstore is the campaign's persistent, queryable store of
// attribution records — the on-disk answer to "all flows attributed to
// com.unity3d across the campaign" or "per-domain bytes for app X" after
// the fleet has shut down, where previously only the single in-memory
// analysis fold could answer (and only for the figures it precomputed).
//
// The unit of exchange is the segment: a symbol-interned, columnar,
// CRC-framed block of records sealed with the same framing discipline as
// the shard partial ("magic | body | crc32c", internal/codec). Each shard
// flushes one segment into its outcome envelope; the store file is a
// sequence of fixed-fan-out segments plus a sorted block index with bloom
// filters, committed atomically (temp file + fsync + rename + dir fsync).
// Because records are kept in canonical (AppIndex, FlowIndex) order and
// shards own contiguous app ranges, merging N shard segments and
// rebuilding the store yields byte-identical output to a single-process
// same-seed run — the same invariance the figures already have.
package resultstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"libspector/internal/codec"
	"libspector/internal/symtab"
)

// ErrCorruptStore reports a segment or store file that is torn,
// truncated, bit-rotten, or carries trailing bytes — anything that must
// not be served as query results. It wraps the underlying framing or
// decoding detail.
var ErrCorruptStore = errors.New("resultstore: corrupt store")

// Record is one flow's attribution row, fully denormalized: everything a
// query needs without consulting the analysis fold or the artifact dirs.
// Records are ordered by (AppIndex, FlowIndex); FlowIndex is the flow's
// position in its run's deterministic flow list.
type Record struct {
	AppIndex  int
	FlowIndex int
	AppSHA    string
	AppPkg    string
	Origin    string // origin library ("" when unattributed)
	TwoLevel  string // 2-level library prefix
	Domain    string // DNS name ("" when the flow had no name)

	Attributed    bool // an xposed report joined this flow
	BuiltinOrigin bool // origin is an Android/Google builtin namespace

	BytesSent     int64
	BytesReceived int64
	PacketsSent   int64
	PacketsRecv   int64
}

// less orders records canonically.
func (r *Record) less(o *Record) bool {
	if r.AppIndex != o.AppIndex {
		return r.AppIndex < o.AppIndex
	}
	return r.FlowIndex < o.FlowIndex
}

// SortRecords puts records into canonical (AppIndex, FlowIndex) order —
// the order every segment and store file requires.
func SortRecords(recs []Record) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].less(&recs[j]) })
}

// segmentMagic identifies one sealed record segment, version 001. The
// same frame is used for shard flushes and for the blocks of a store
// file.
const segmentMagic = "LSSEG001"

const (
	flagAttributed = 1 << 0
	flagBuiltin    = 1 << 1
)

// EncodeSegment seals records — which must already be in canonical order
// — into one CRC-framed columnar segment. Strings are interned into a
// single segment-local symbol table in first-appearance order (scanning
// rows, then SHA, package, origin, two-level, domain within a row), so
// equal record sequences always produce equal bytes. Encoding an empty
// slice is valid and yields an empty segment.
func EncodeSegment(recs []Record) ([]byte, error) {
	var b []byte
	b = append(b, segmentMagic...)
	body, err := appendSegmentBody(b, recs)
	if err != nil {
		return nil, err
	}
	return codec.AppendSum(body, len(segmentMagic)), nil
}

func appendSegmentBody(b []byte, recs []Record) ([]byte, error) {
	syms := symtab.NewTable(nil)
	for i := range recs {
		r := &recs[i]
		if i > 0 && !recs[i-1].less(r) {
			return nil, fmt.Errorf("resultstore: records out of canonical order at row %d (app %d flow %d after app %d flow %d)",
				i, r.AppIndex, r.FlowIndex, recs[i-1].AppIndex, recs[i-1].FlowIndex)
		}
		syms.Intern(r.AppSHA)
		syms.Intern(r.AppPkg)
		syms.Intern(r.Origin)
		syms.Intern(r.TwoLevel)
		syms.Intern(r.Domain)
	}

	b = binary.AppendUvarint(b, uint64(len(recs)))
	strs := syms.Strings()
	b = binary.AppendUvarint(b, uint64(len(strs)))
	for _, s := range strs {
		b = codec.AppendString(b, s)
	}

	// Columnar layout: one column at a time over all rows, so runs of
	// equal symbols and small deltas varint-compress well.
	prev := 0
	for i := range recs {
		b = binary.AppendUvarint(b, uint64(recs[i].AppIndex-prev)) // sorted ⇒ non-negative deltas
		prev = recs[i].AppIndex
	}
	for i := range recs {
		b = binary.AppendUvarint(b, uint64(recs[i].FlowIndex))
	}
	for _, col := range []func(*Record) string{
		func(r *Record) string { return r.AppSHA },
		func(r *Record) string { return r.AppPkg },
		func(r *Record) string { return r.Origin },
		func(r *Record) string { return r.TwoLevel },
		func(r *Record) string { return r.Domain },
	} {
		for i := range recs {
			sym, _ := syms.Lookup(col(&recs[i]))
			b = binary.AppendUvarint(b, uint64(sym))
		}
	}
	for i := range recs {
		var flags byte
		if recs[i].Attributed {
			flags |= flagAttributed
		}
		if recs[i].BuiltinOrigin {
			flags |= flagBuiltin
		}
		b = append(b, flags)
	}
	for _, col := range []func(*Record) int64{
		func(r *Record) int64 { return r.BytesSent },
		func(r *Record) int64 { return r.BytesReceived },
		func(r *Record) int64 { return r.PacketsSent },
		func(r *Record) int64 { return r.PacketsRecv },
	} {
		for i := range recs {
			v := col(&recs[i])
			if v < 0 {
				return nil, fmt.Errorf("resultstore: negative counter %d at row %d", v, i)
			}
			b = binary.AppendUvarint(b, uint64(v))
		}
	}
	return b, nil
}

// DecodeSegment reverses EncodeSegment. It is strict the way every
// decoder fed by files from possibly-crashed processes must be: bounds
// checks before every allocation, symbol references validated against the
// decoded table, canonical order re-verified, and exactly zero bytes left
// over after the last column — trailing bytes inside the CRC frame are
// corruption, not padding. All failures wrap ErrCorruptStore.
func DecodeSegment(data []byte) ([]Record, error) {
	body, err := codec.Open(segmentMagic, data)
	if err != nil {
		return nil, fmt.Errorf("%w: segment: %v", ErrCorruptStore, err)
	}
	d := codec.NewReader(body, ErrCorruptStore)

	nRecs := d.Length()
	nSyms := d.Length()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if nSyms < 1 {
		return nil, fmt.Errorf("%w: segment symbol table is empty (missing pre-interned \"\")", ErrCorruptStore)
	}
	strs := make([]string, nSyms)
	for i := range strs {
		strs[i] = d.String()
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if strs[0] != "" {
		return nil, fmt.Errorf("%w: segment symbol table does not start with the empty symbol", ErrCorruptStore)
	}

	recs := make([]Record, nRecs)
	app := uint64(0)
	for i := range recs {
		app += d.Uvarint()
		recs[i].AppIndex = int(app)
	}
	for i := range recs {
		recs[i].FlowIndex = int(d.Uvarint())
	}
	for _, col := range []func(*Record, string){
		func(r *Record, s string) { r.AppSHA = s },
		func(r *Record, s string) { r.AppPkg = s },
		func(r *Record, s string) { r.Origin = s },
		func(r *Record, s string) { r.TwoLevel = s },
		func(r *Record, s string) { r.Domain = s },
	} {
		for i := range recs {
			sym := d.Uvarint()
			if d.Err() != nil {
				return nil, d.Err()
			}
			if sym >= uint64(len(strs)) {
				return nil, fmt.Errorf("%w: symbol %d out of range (table holds %d)", ErrCorruptStore, sym, len(strs))
			}
			col(&recs[i], strs[sym])
		}
	}
	for i := range recs {
		flags := d.Byte()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if flags&^(flagAttributed|flagBuiltin) != 0 {
			return nil, fmt.Errorf("%w: unknown flag bits %02x at row %d", ErrCorruptStore, flags, i)
		}
		recs[i].Attributed = flags&flagAttributed != 0
		recs[i].BuiltinOrigin = flags&flagBuiltin != 0
	}
	for _, col := range []func(*Record, int64){
		func(r *Record, v int64) { r.BytesSent = v },
		func(r *Record, v int64) { r.BytesReceived = v },
		func(r *Record, v int64) { r.PacketsSent = v },
		func(r *Record, v int64) { r.PacketsRecv = v },
	} {
		for i := range recs {
			col(&recs[i], int64(d.Uvarint()))
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	for i := 1; i < len(recs); i++ {
		if !recs[i-1].less(&recs[i]) {
			return nil, fmt.Errorf("%w: segment rows out of canonical order at row %d", ErrCorruptStore, i)
		}
	}
	return recs, nil
}
