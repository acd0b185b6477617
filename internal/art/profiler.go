package art

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"unsafe"

	"libspector/internal/dex"
)

// ProfilerMode selects how the method-trace listener stores invocations.
type ProfilerMode int

const (
	// ProfilerBounded is stock ART behaviour: every method entry —
	// including repeated calls — is appended to a fixed-size buffer that
	// fills within seconds of app initialization (§II-B1). Once full,
	// further entries are dropped, losing coverage data.
	ProfilerBounded ProfilerMode = iota + 1
	// ProfilerUnique is the paper's ART modification: the profiler records
	// a method only on its first invocation, so the buffer holds the set
	// of unique methods regardless of call volume.
	ProfilerUnique
)

// DefaultBoundedBufferSize models the stock trace buffer capacity in
// recorded entries.
const DefaultBoundedBufferSize = 8192

// Profiler is the Method Monitor's runtime half: an Android-Profiler-style
// listener registered through the Activity Manager API that observes every
// Java method entry (§II-B1). It observes the methods of one dex file by
// index and renders their signatures from the file only when asked for
// the trace.
type Profiler struct {
	mode     ProfilerMode
	capacity int
	file     *dex.File

	// buffered counts the entries the raw buffer holds (bounded mode
	// only); nothing reads the entries themselves.
	buffered int
	// seen is the first-invocation set, one bit per method index (both
	// modes track it; in bounded mode entries beyond capacity are lost
	// before reaching it, which is exactly the deficiency the paper
	// fixed).
	seen []uint64
	// order preserves first-invocation order for trace-file output.
	order   []int32
	dropped int64
	total   int64
}

// NewProfiler creates a profiler for the methods of file, which holds
// every method it will hold while the profiler observes it. capacity
// applies to bounded mode; non-positive values use
// DefaultBoundedBufferSize.
func NewProfiler(mode ProfilerMode, capacity int, file *dex.File) (*Profiler, error) {
	switch mode {
	case ProfilerBounded, ProfilerUnique:
	default:
		return nil, fmt.Errorf("art: unknown profiler mode %d", mode)
	}
	if file == nil {
		return nil, fmt.Errorf("art: profiler needs a dex file")
	}
	if capacity <= 0 {
		capacity = DefaultBoundedBufferSize
	}
	return &Profiler{
		mode:     mode,
		capacity: capacity,
		file:     file,
		seen:     make([]uint64, (file.MethodCount()+63)/64),
	}, nil
}

// OnMethodEntry records one invocation of the file's method idx, which
// the caller has checked is in range.
func (p *Profiler) OnMethodEntry(idx int) {
	p.total++
	if p.mode == ProfilerBounded {
		if p.buffered >= p.capacity {
			p.dropped++
			return
		}
		p.buffered++
	}
	word, bit := idx/64, uint64(1)<<(idx%64)
	if p.seen[word]&bit != 0 {
		return
	}
	p.seen[word] |= bit
	p.order = append(p.order, int32(idx))
}

// signature renders recorded method idx from the file.
func (p *Profiler) signature(idx int32) string {
	sig, _ := p.file.SignatureAt(int(idx)) // in range: OnMethodEntry's contract
	return sig
}

// UniqueMethods returns the set of method signatures observed at least
// once (subject to bounded-mode data loss). Its keys are copies, all in
// one block the set owns: the file's release hands its signatures to
// another app while the set may still be on its way to the artifact
// store.
func (p *Profiler) UniqueMethods() map[string]struct{} {
	n := 0
	for _, idx := range p.order {
		n += len(p.signature(idx))
	}
	block := make([]byte, 0, n)
	out := make(map[string]struct{}, len(p.order))
	for _, idx := range p.order {
		sig := p.signature(idx)
		block = append(block, sig...)
		key := block[len(block)-len(sig):]
		out[unsafe.String(unsafe.SliceData(key), len(key))] = struct{}{}
	}
	return out
}

// UniqueCount reports the number of distinct recorded methods.
func (p *Profiler) UniqueCount() int { return len(p.order) }

// TotalInvocations reports every observed method entry, including repeats.
func (p *Profiler) TotalInvocations() int64 { return p.total }

// DroppedInvocations reports entries lost to a full bounded buffer.
func (p *Profiler) DroppedInvocations() int64 { return p.dropped }

// WriteTrace writes the method trace file the framework produces at the
// end of each experiment (§II-B3): one type signature per line, in
// first-invocation order.
func (p *Profiler) WriteTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, idx := range p.order {
		if _, err := bw.WriteString(p.signature(idx)); err != nil {
			return fmt.Errorf("art: writing trace: %w", err)
		}
		if err := bw.WriteByte('\n'); err != nil {
			return fmt.Errorf("art: writing trace: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("art: flushing trace: %w", err)
	}
	return nil
}

// ReadTrace parses a trace file back into a signature set.
func ReadTrace(r io.Reader) (map[string]struct{}, error) {
	out := make(map[string]struct{})
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		out[line] = struct{}{}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("art: reading trace: %w", err)
	}
	return out, nil
}

// SortedUnique returns the recorded signatures sorted, for deterministic
// assertions in tests.
func (p *Profiler) SortedUnique() []string {
	out := make([]string, len(p.order))
	for i, idx := range p.order {
		out[i] = p.signature(idx)
	}
	sort.Strings(out)
	return out
}
