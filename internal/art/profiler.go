package art

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"unsafe"
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
// Java method entry (§II-B1).
type Profiler struct {
	mode     ProfilerMode
	capacity int

	// entries is the raw buffer (bounded mode only).
	entries []string
	// unique is the first-invocation set (both modes track it; in bounded
	// mode entries beyond capacity are lost before reaching it, which is
	// exactly the deficiency the paper fixed).
	unique map[string]struct{}
	// order preserves first-invocation order for trace-file output.
	order   []string
	dropped int64
	total   int64
}

// NewProfiler creates a profiler. capacity applies to bounded mode;
// non-positive values use DefaultBoundedBufferSize.
func NewProfiler(mode ProfilerMode, capacity int) (*Profiler, error) {
	switch mode {
	case ProfilerBounded, ProfilerUnique:
	default:
		return nil, fmt.Errorf("art: unknown profiler mode %d", mode)
	}
	if capacity <= 0 {
		capacity = DefaultBoundedBufferSize
	}
	return &Profiler{
		mode:     mode,
		capacity: capacity,
		unique:   make(map[string]struct{}),
	}, nil
}

// OnMethodEntry records one method invocation identified by its full type
// signature.
func (p *Profiler) OnMethodEntry(signature string) {
	p.total++
	switch p.mode {
	case ProfilerBounded:
		if len(p.entries) >= p.capacity {
			p.dropped++
			return
		}
		p.entries = append(p.entries, signature)
		if _, seen := p.unique[signature]; !seen {
			p.unique[signature] = struct{}{}
			p.order = append(p.order, signature)
		}
	case ProfilerUnique:
		if _, seen := p.unique[signature]; seen {
			return
		}
		p.unique[signature] = struct{}{}
		p.order = append(p.order, signature)
	}
}

// UniqueMethods returns the set of method signatures observed at least
// once (subject to bounded-mode data loss). Its keys are copies, all in
// one block the set owns: the signatures the profiler observed are
// usually the dex file's own, which the file's release hands to another
// app while the set may still be on its way to the artifact store.
func (p *Profiler) UniqueMethods() map[string]struct{} {
	n := 0
	for _, s := range p.order {
		n += len(s)
	}
	block := make([]byte, 0, n)
	out := make(map[string]struct{}, len(p.order))
	for _, s := range p.order {
		block = append(block, s...)
		key := block[len(block)-len(s):]
		out[unsafe.String(unsafe.SliceData(key), len(key))] = struct{}{}
	}
	return out
}

// UniqueCount reports the number of distinct recorded methods.
func (p *Profiler) UniqueCount() int { return len(p.unique) }

// TotalInvocations reports every observed method entry, including repeats.
func (p *Profiler) TotalInvocations() int64 { return p.total }

// DroppedInvocations reports entries lost to a full bounded buffer.
func (p *Profiler) DroppedInvocations() int64 { return p.dropped }

// WriteTrace writes the method trace file the framework produces at the
// end of each experiment (§II-B3): one type signature per line, in
// first-invocation order.
func (p *Profiler) WriteTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, sig := range p.order {
		if _, err := bw.WriteString(sig); err != nil {
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
	out := make([]string, 0, len(p.unique))
	for s := range p.unique {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
