package analysis

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"libspector/internal/baseline"
	"libspector/internal/codec"
	"libspector/internal/libradar"
	"libspector/internal/symtab"
)

// Partial is one shard's sealed aggregation state: the columnar core
// frozen before the finish step. Unlike Aggregates — which is float-laden
// and sorted, hence unmergeable — a Partial holds only commutative int64
// columns and cells keyed by private symbol IDs, so two partials produced
// by different processes merge exactly: their symbol tables are unified
// with symtab.MergeFrom and every column and cell key is re-folded
// through the resulting dense remap. Merging N shard partials and
// finishing once yields byte-identical figures to folding the whole
// corpus in one process, because the fold is order-independent and
// finish sorts before every float computation.
//
// A Partial also serializes (Encode/DecodePartial) so shards in separate
// processes can ship their state to a coordinator as an opaque blob.
type Partial struct {
	core *core
}

// Seal freezes the accumulator and converts it into a mergeable,
// serializable Partial. The accumulator rejects further observations and
// cannot be finished afterwards — the Partial owns the state.
func (a *Accumulator) Seal() (*Partial, error) {
	if a.sealed {
		return nil, fmt.Errorf("analysis: accumulator already sealed")
	}
	if a.core.finished {
		return nil, fmt.Errorf("analysis: accumulator already finished")
	}
	a.sealed = true
	return &Partial{core: a.core}, nil
}

// Runs reports how many runs this partial folded.
func (p *Partial) Runs() int { return p.core.runs }

// Finish resolves the deferred library categories through the detector
// and freezes the partial into Aggregates, exactly like
// Accumulator.Finish. A partial can be finished once.
func (p *Partial) Finish(detector *libradar.Detector) (*Aggregates, error) {
	return p.core.finish(detector)
}

// Merge combines two shard partials into a fresh one, leaving both inputs
// untouched. Symbol namespaces are unified left-to-right, so Merge is
// associative and identity-preserving at the encoded-byte level; it is
// commutative at the finished-figure level (intern order differs, but
// every figure sorts in finish).
func Merge(a, b *Partial) (*Partial, error) {
	return MergePartials(a, b)
}

// MergePartials folds any number of shard partials into a fresh partial.
// All inputs must have been produced against the same domain categorizer
// (the same campaign); the first partial's categorizer seeds the result.
func MergePartials(parts ...*Partial) (*Partial, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("analysis: no partials to merge")
	}
	for i, p := range parts {
		if p == nil || p.core == nil {
			return nil, fmt.Errorf("analysis: nil partial at index %d", i)
		}
		if p.core.finished {
			return nil, fmt.Errorf("analysis: partial at index %d already finished", i)
		}
	}
	dst, err := newCore(parts[0].core.syms.categorizer)
	if err != nil {
		return nil, err
	}
	for _, p := range parts {
		mergeInto(dst, p.core)
	}
	return &Partial{core: dst}, nil
}

// mergeInto folds src into dst. The symbol tables are unified first — the
// on-intern hooks rebuild dst's fact columns for strings dst has not seen
// — and every symbol-indexed column and every library cell's key is then
// re-folded through the dense old→new remaps. All folded quantities are
// commutative int64 sums, so the result is independent of merge order up
// to symbol numbering, which finish erases by sorting.
func mergeInto(dst, src *core) {
	appR := dst.syms.apps.MergeFrom(src.syms.apps)
	catR := dst.syms.appCats.MergeFrom(src.syms.appCats)
	orgR := dst.syms.origins.MergeFrom(src.syms.origins)
	twoR := dst.syms.twoLevels.MergeFrom(src.syms.twoLevels)
	domR := dst.syms.domains.MergeFrom(src.syms.domains)
	dcR := dst.syms.domCats.MergeFrom(src.syms.domCats)

	dst.runs += src.runs
	dst.flows += src.flows
	dst.unattributed += src.unattributed
	dst.bytesSent += src.bytesSent
	dst.bytesReceived += src.bytesReceived
	dst.udpWire += src.udpWire
	dst.dnsWire += src.dnsWire
	dst.tcpWire += src.tcpWire

	mergeEntityStats(&dst.perApp, &src.perApp, appR)
	mergeEntityStats(&dst.perOrigin, &src.perOrigin, orgR)
	mergeEntityStats(&dst.perDomain, &src.perDomain, domR)

	for k, v := range src.lib {
		dst.lib[libCell{catR[k.appCat], dcR[k.domCat], orgR[k.origin], k.builtin}] += v
	}
	for k, v := range src.e4 {
		dst.e4[e4Cell{orgR[k.origin], k.verdict}] += v
	}
	mergeCountVec(&dst.twoBytes, &src.twoBytes, twoR)
	mergeBoolCol(&dst.twoBuiltin, src.twoBuiltin, twoR)

	for i := range src.fig6 {
		a := &src.fig6[i]
		if !a.seen {
			continue
		}
		j := int(appR[i])
		for len(dst.fig6) <= j {
			dst.fig6 = append(dst.fig6, antAcc{})
		}
		d := &dst.fig6[j]
		d.seen = true
		d.total += a.total
		d.ant += a.ant
		d.cl += a.cl
		d.antSent += a.antSent
		d.antRcvd += a.antRcvd
		d.clSent += a.clSent
		d.clRcvd += a.clRcvd
	}

	mergeCountVec(&dst.domBytes, &src.domBytes, dcR)
	for i, cats := range src.fig8Cats {
		for _, cat := range cats {
			dst.addFig8App(appR[i], catR[cat])
		}
	}

	dst.coverage = append(dst.coverage, src.coverage...)
}

// mergeEntityStats re-folds a per-entity column through a remap. Using
// add preserves seen-with-zero entries — presence is meaningful even for
// entities whose byte totals are zero.
func mergeEntityStats(dst, src *entityStats, r symtab.Remap) {
	for i, seen := range src.seen {
		if seen {
			dst.add(r[i], src.pairs[i].sent, src.pairs[i].rcvd)
		}
	}
}

func mergeCountVec(dst, src *countVec, r symtab.Remap) {
	for i, seen := range src.seen {
		if seen {
			dst.add(int(r[i]), src.vals[i])
		}
	}
}

// mergeBoolCol ORs a symbol-indexed marker column through a remap. The
// column's length tracks every symbol any flow touched (finish indexes it
// for each seen entity), so even false entries grow the destination.
func mergeBoolCol(dst *[]bool, src []bool, r symtab.Remap) {
	for i, b := range src {
		j := int(r[i])
		*dst = growBools(*dst, j)
		if b {
			(*dst)[j] = true
		}
	}
}

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

// partialMagic identifies a serialized shard partial, version 03: the
// baseline cells follow the library cells (version 02 had none; version
// 01 wrote dense matrices).
const partialMagic = "LSPART03"

// ErrCorruptPartial reports a serialized partial that is torn, truncated,
// or otherwise not decodable. Decoders must surface it (wrapped) rather
// than merging a damaged shard silently.
var ErrCorruptPartial = errors.New("analysis: corrupt shard partial")

// ErrCategorizerMismatch reports that a decoded partial's recorded domain
// categories disagree with the local categorizer — the shard was produced
// against a different campaign world and must not be merged.
var ErrCategorizerMismatch = errors.New("analysis: partial domain categories disagree with local categorizer")

// Encode serializes the partial deterministically:
//
//	"LSPART03" | body | crc32c(body) little-endian
//
// The body is a fixed sequence of varint-framed sections: the six symbol
// tables (string count, then length-prefixed strings in dense ID order),
// the recorded domain-category facts (for the decode-side categorizer
// cross-check), the scalar totals, every column, the library cells in key
// order (libCell.less), and last the baseline cells in key order
// (e4Cell.less), each an origin symbol, a verdict byte and its bytes.
// Encoding does not mutate the partial and may be called repeatedly.
func (p *Partial) Encode() ([]byte, error) {
	if p == nil || p.core == nil {
		return nil, fmt.Errorf("analysis: nil partial")
	}
	if p.core.finished {
		return nil, fmt.Errorf("analysis: cannot encode a finished partial")
	}
	c := p.core
	var b []byte
	b = append(b, partialMagic...)
	body := len(b)

	for _, t := range []*symtab.Table{
		c.syms.apps, c.syms.appCats, c.syms.origins,
		c.syms.twoLevels, c.syms.domains, c.syms.domCats,
	} {
		strs := t.Strings()
		b = binary.AppendUvarint(b, uint64(len(strs)))
		for _, s := range strs {
			b = codec.AppendString(b, s)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(c.syms.domainCats)))
	for _, s := range c.syms.domainCats {
		b = binary.AppendUvarint(b, uint64(s))
	}

	for _, v := range []int64{
		int64(c.runs), int64(c.flows), int64(c.unattributed),
		c.bytesSent, c.bytesReceived, c.udpWire, c.dnsWire, c.tcpWire,
	} {
		b = binary.AppendVarint(b, v)
	}

	b = appendEntityStats(b, &c.perApp)
	b = appendEntityStats(b, &c.perOrigin)
	b = appendEntityStats(b, &c.perDomain)
	b = appendCountVec(b, &c.twoBytes)
	b = appendBools(b, c.twoBuiltin)

	b = binary.AppendUvarint(b, uint64(len(c.fig6)))
	for i := range c.fig6 {
		a := &c.fig6[i]
		b = codec.AppendBool(b, a.seen)
		for _, v := range []int64{a.total, a.ant, a.cl, a.antSent, a.antRcvd, a.clSent, a.clRcvd} {
			b = binary.AppendVarint(b, v)
		}
	}

	b = appendCountVec(b, &c.domBytes)

	b = binary.AppendUvarint(b, uint64(len(c.fig8Cats)))
	for _, cats := range c.fig8Cats {
		b = binary.AppendUvarint(b, uint64(len(cats)))
		for _, cat := range cats {
			b = binary.AppendUvarint(b, uint64(cat))
		}
	}

	b = binary.AppendUvarint(b, uint64(len(c.coverage)))
	for _, e := range c.coverage {
		b = binary.AppendVarint(b, int64(e.appIndex))
		b = binary.AppendUvarint(b, math.Float64bits(e.percent))
		b = binary.AppendUvarint(b, math.Float64bits(e.methods))
	}

	cells := make([]libCell, 0, len(c.lib))
	for k := range c.lib {
		cells = append(cells, k)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].less(cells[j]) })
	b = binary.AppendUvarint(b, uint64(len(cells)))
	for _, k := range cells {
		b = binary.AppendUvarint(b, uint64(k.appCat))
		b = binary.AppendUvarint(b, uint64(k.domCat))
		b = binary.AppendUvarint(b, uint64(k.origin))
		b = codec.AppendBool(b, k.builtin)
		b = binary.AppendVarint(b, c.lib[k])
	}

	e4 := make([]e4Cell, 0, len(c.e4))
	for k := range c.e4 {
		e4 = append(e4, k)
	}
	sort.Slice(e4, func(i, j int) bool { return e4[i].less(e4[j]) })
	b = binary.AppendUvarint(b, uint64(len(e4)))
	for _, k := range e4 {
		b = binary.AppendUvarint(b, uint64(k.origin))
		b = append(b, byte(k.verdict))
		b = binary.AppendVarint(b, c.e4[k])
	}

	return codec.AppendSum(b, body), nil
}

func appendBools(b []byte, s []bool) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	for _, v := range s {
		b = codec.AppendBool(b, v)
	}
	return b
}

func appendCountVec(b []byte, v *countVec) []byte {
	b = binary.AppendUvarint(b, uint64(len(v.vals)))
	for i := range v.vals {
		b = codec.AppendBool(b, v.seen[i])
		b = binary.AppendVarint(b, v.vals[i])
	}
	return b
}

func appendEntityStats(b []byte, e *entityStats) []byte {
	b = binary.AppendUvarint(b, uint64(len(e.pairs)))
	for i := range e.pairs {
		b = codec.AppendBool(b, e.seen[i])
		b = binary.AppendVarint(b, e.pairs[i].sent)
		b = binary.AppendVarint(b, e.pairs[i].rcvd)
	}
	return b
}

// The section readers below sit on codec.Reader, whose count checks bound
// every allocation by the bytes remaining: hostile input (fuzzing, torn
// files) fails with ErrCorruptPartial instead of panicking or allocating
// unbounded memory. After a failure Length returns 0 and every read a
// zero value, so the readers need no error checks of their own.

func readBools(d *codec.Reader) []bool {
	out := make([]bool, d.Length())
	for i := range out {
		out[i] = d.Bool()
	}
	return out
}

func readCountVec(d *codec.Reader) countVec {
	n := d.Length()
	v := countVec{vals: make([]int64, n), seen: make([]bool, n)}
	for i := 0; i < n; i++ {
		v.seen[i] = d.Bool()
		v.vals[i] = d.Varint()
	}
	return v
}

func readEntityStats(d *codec.Reader) entityStats {
	n := d.Length()
	e := entityStats{pairs: make([]pair, n), seen: make([]bool, n)}
	for i := 0; i < n; i++ {
		e.seen[i] = d.Bool()
		e.pairs[i].sent = d.Varint()
		e.pairs[i].rcvd = d.Varint()
		if e.seen[i] {
			e.distinct++
		}
	}
	return e
}

// DecodePartial reconstructs a shard partial from Encode's output. The
// symbol tables are rebuilt by re-interning the recorded strings in dense
// ID order, which re-runs the on-intern hooks and thereby rebuilds the
// fact columns locally; the recorded domain-category facts are then
// cross-checked against the rebuilt ones, so a shard produced against a
// different campaign world fails with ErrCategorizerMismatch instead of
// merging silently. Torn or truncated input fails with a wrapped
// ErrCorruptPartial.
func DecodePartial(data []byte, domains DomainCategorizer) (*Partial, error) {
	body, err := codec.Open(partialMagic, data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptPartial, err)
	}

	c, err := newCore(domains)
	if err != nil {
		return nil, err
	}
	d := codec.NewReader(body, ErrCorruptPartial)

	tables := []*symtab.Table{
		c.syms.apps, c.syms.appCats, c.syms.origins,
		c.syms.twoLevels, c.syms.domains, c.syms.domCats,
	}
	recorded := make([][]string, len(tables))
	for ti := range tables {
		n := d.Length()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if n < 1 {
			return nil, fmt.Errorf("%w: table %d is empty (missing pre-interned \"\")", ErrCorruptPartial, ti)
		}
		recorded[ti] = make([]string, n)
		for i := 0; i < n; i++ {
			recorded[ti][i] = d.String()
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		if recorded[ti][0] != "" {
			return nil, fmt.Errorf("%w: table %d does not start with the empty symbol", ErrCorruptPartial, ti)
		}
		dup := make(map[string]struct{}, n)
		for i := 1; i < n; i++ {
			if _, ok := dup[recorded[ti][i]]; ok {
				return nil, fmt.Errorf("%w: table %d repeats %q", ErrCorruptPartial, ti, recorded[ti][i])
			}
			dup[recorded[ti][i]] = struct{}{}
		}
	}
	// Re-intern in dense ID order. The domCats table is rebuilt as a side
	// effect of the domains hook; interning its recorded strings afterwards
	// must be a no-op if the local categorizer agrees with the producer's.
	for ti, t := range tables[:5] {
		for i, s := range recorded[ti] {
			if got := t.Intern(s); int(got) != i {
				return nil, fmt.Errorf("%w: table %d re-interned %q to %d, want %d", ErrCorruptPartial, ti, s, got, i)
			}
		}
	}
	for i, s := range recorded[5] {
		got, ok := c.syms.domCats.Lookup(s)
		if !ok || int(got) != i {
			return nil, fmt.Errorf("%w: domain category %q maps to a different symbol locally", ErrCategorizerMismatch, s)
		}
	}
	if c.syms.domCats.Len() != len(recorded[5]) {
		return nil, fmt.Errorf("%w: local categorizer produced %d categories, partial recorded %d",
			ErrCategorizerMismatch, c.syms.domCats.Len(), len(recorded[5]))
	}

	nFacts := d.Length()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if nFacts != c.syms.domains.Len() {
		return nil, fmt.Errorf("%w: %d domain-category facts for %d domains", ErrCorruptPartial, nFacts, c.syms.domains.Len())
	}
	for i := 0; i < nFacts; i++ {
		raw := d.Uvarint()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if raw >= uint64(len(recorded[5])) {
			return nil, fmt.Errorf("%w: domain-category fact %d out of range", ErrCorruptPartial, raw)
		}
		if rec := symtab.Sym(raw); rec != c.syms.domainCats[i] {
			return nil, fmt.Errorf("%w: domain %q categorized as %q locally, %q by the producer",
				ErrCategorizerMismatch, c.syms.domains.String(symtab.Sym(i)),
				c.syms.domCats.String(c.syms.domainCats[i]), recorded[5][rec])
		}
	}

	c.runs = int(d.Varint())
	c.flows = int(d.Varint())
	c.unattributed = int(d.Varint())
	c.bytesSent = d.Varint()
	c.bytesReceived = d.Varint()
	c.udpWire = d.Varint()
	c.dnsWire = d.Varint()
	c.tcpWire = d.Varint()

	c.perApp = readEntityStats(d)
	c.perOrigin = readEntityStats(d)
	c.perDomain = readEntityStats(d)
	c.twoBytes = readCountVec(d)
	c.twoBuiltin = readBools(d)

	c.fig6 = make([]antAcc, d.Length())
	for i := range c.fig6 {
		a := &c.fig6[i]
		a.seen = d.Bool()
		a.total = d.Varint()
		a.ant = d.Varint()
		a.cl = d.Varint()
		a.antSent = d.Varint()
		a.antRcvd = d.Varint()
		a.clSent = d.Varint()
		a.clRcvd = d.Varint()
	}

	c.domBytes = readCountVec(d)

	c.fig8Cats = make([][]symtab.Sym, d.Length())
	for i := range c.fig8Cats {
		if m := d.Length(); m > 0 {
			c.fig8Cats[i] = make([]symtab.Sym, m)
			for j := range c.fig8Cats[i] {
				c.fig8Cats[i][j] = readSym(d, c.syms.appCats, "fig8 category")
			}
		}
	}

	c.coverage = make([]coverageEntry, d.Length())
	for i := range c.coverage {
		c.coverage[i].appIndex = int(d.Varint())
		c.coverage[i].percent = math.Float64frombits(d.Uvarint())
		c.coverage[i].methods = math.Float64frombits(d.Uvarint())
	}

	// The cells must come in strictly increasing key order, which rejects
	// a repeated cell and keeps every accepted partial's encoding its own.
	n := d.Length()
	var prev libCell
	for i := 0; i < n && d.Err() == nil; i++ {
		k := libCell{
			appCat: readSym(d, c.syms.appCats, "cell app category"),
			domCat: readSym(d, c.syms.domCats, "cell domain category"),
			origin: readSym(d, c.syms.origins, "cell origin"),
		}
		k.builtin = d.Bool()
		if i > 0 && !prev.less(k) {
			d.Failf("library cell %d out of order", i)
		}
		c.lib[k] = d.Varint()
		prev = k
	}
	// The baseline cells, under the same order rule; a verdict byte may
	// carry only the defined bits.
	n = d.Length()
	var prevE4 e4Cell
	for i := 0; i < n && d.Err() == nil; i++ {
		k := e4Cell{origin: readSym(d, c.syms.origins, "baseline cell origin")}
		k.verdict = baseline.Verdict(d.Byte())
		if k.verdict&^baseline.AllVerdicts != 0 {
			d.Failf("baseline cell %d has undefined verdict bits %#x", i, k.verdict)
		}
		if i > 0 && !prevE4.less(k) {
			d.Failf("baseline cell %d out of order", i)
		}
		c.e4[k] = d.Varint()
		prevE4 = k
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	if err := validatePartial(c); err != nil {
		return nil, err
	}
	return &Partial{core: c}, nil
}

// readSym reads a symbol of table t, failing d when it is out of range.
func readSym(d *codec.Reader, t *symtab.Table, what string) symtab.Sym {
	raw := d.Uvarint()
	if d.Err() == nil && raw >= uint64(t.Len()) {
		d.Failf("%s symbol %d out of range", what, raw)
	}
	return symtab.Sym(raw)
}

// validatePartial rejects decoded state whose symbol references escape
// the decoded tables — a merged fold would index out of range later, far
// from the corruption.
func validatePartial(c *core) error {
	check := func(what string, got, table int) error {
		if got > table {
			return fmt.Errorf("%w: %s has %d entries but table holds %d symbols", ErrCorruptPartial, what, got, table)
		}
		return nil
	}
	apps, origins, twos := c.syms.apps.Len(), c.syms.origins.Len(), c.syms.twoLevels.Len()
	doms, domCats := c.syms.domains.Len(), c.syms.domCats.Len()
	for _, e := range []error{
		check("perApp", len(c.perApp.pairs), apps),
		check("perOrigin", len(c.perOrigin.pairs), origins),
		check("perDomain", len(c.perDomain.pairs), doms),
		check("twoBytes", len(c.twoBytes.vals), twos),
		check("twoBuiltin", len(c.twoBuiltin), twos),
		check("fig6", len(c.fig6), apps),
		check("domBytes", len(c.domBytes.vals), domCats),
		check("fig8Cats", len(c.fig8Cats), apps),
	} {
		if e != nil {
			return e
		}
	}
	return nil
}

// equalEncoded reports whether two partials serialize to the same bytes —
// the strongest equality the merge property tests assert.
func equalEncoded(a, b *Partial) (bool, error) {
	ab, err := a.Encode()
	if err != nil {
		return false, err
	}
	bb, err := b.Encode()
	if err != nil {
		return false, err
	}
	return bytes.Equal(ab, bb), nil
}
