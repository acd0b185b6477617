package obs

// Worker-local meter accumulators.
//
// The registry's Counter is an atomic — cheap, but on the per-run hot
// path (one Inc per supervisor report, per blocked connection, per
// dropped datagram) every increment is a contended cache line shared by
// all workers plus a registry map lookup. A Meters is the uncontended
// alternative: a set of plain int64 cells owned by exactly one worker
// goroutine, merged into the shared registry at a barrier the dispatcher
// controls (run completion; the stream-end join precedes any final
// snapshot, so post-drain snapshots are exact).
//
// Determinism contract: several hot-path series (xposed reports, hook
// errors, blocked connections, dropped datagrams) are registered lazily
// — they must not appear in a snapshot unless at least one event
// occurred (resume replay charges a journaled attempt through these same
// cells, so it inherits the rule). Flush therefore skips zero-valued
// cells entirely instead of registering an empty series, which keeps
// Meters-path snapshots byte-identical to the direct atomics path.

// LocalCounter is one worker-local cell: a plain int64, no atomics,
// owned by a single goroutine. Nil cells are inert, matching the
// registry's nil-safe Counter so call sites need no guards.
type LocalCounter struct {
	n int64
	// bounds is non-nil on a histogram cell (Meters.Histogram): Flush
	// observes n once instead of adding it to a counter.
	bounds []int64
}

// Add increments the cell by n (negative and zero n are ignored,
// matching Counter.Add — counters never move backwards).
func (c *LocalCounter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.n += n
}

// Inc increments the cell by one.
func (c *LocalCounter) Inc() { c.Add(1) }

// Value reads the cell's unflushed count.
func (c *LocalCounter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n
}

// Meters is a worker-local set of counter cells keyed by registry name.
// It is NOT safe for concurrent use — each worker owns exactly one — and
// that is the point: the hot path mutates plain int64s and the shared
// registry is only touched at Flush.
type Meters struct {
	cells map[string]*LocalCounter
	order []string // first-touch order, so Flush is deterministic per worker
}

// NewMeters creates an empty worker-local accumulator set.
func NewMeters() *Meters {
	return &Meters{cells: make(map[string]*LocalCounter)}
}

// Counter returns the cell for name, creating it on first use. Nil-safe:
// a nil Meters yields a nil (inert) cell.
func (m *Meters) Counter(name string) *LocalCounter { return m.Histogram(name, nil) }

// Histogram returns the cell for a histogram series (nil bounds: a
// counter). What the owner adds between two flushes is one observation
// — the run's virtual duration, say — so a flush that finds the cell at
// zero observes nothing.
func (m *Meters) Histogram(name string, bounds []int64) *LocalCounter {
	if m == nil {
		return nil
	}
	c := m.cells[name]
	if c == nil {
		c = &LocalCounter{bounds: bounds}
		m.cells[name] = c
		m.order = append(m.order, name)
	}
	return c
}

// Flush merges every non-zero cell into tel's registry and zeroes the
// locals, leaving the Meters ready for the owner's next run. Zero cells
// are skipped so lazily-registered series stay absent when nothing
// happened. Nil m and nil tel are both safe (the counts are simply
// dropped on a nil tel, same as an uninstrumented direct call).
func (m *Meters) Flush(tel *Telemetry) {
	if m == nil {
		return
	}
	for _, name := range m.order {
		c := m.cells[name]
		if c.n == 0 {
			continue
		}
		if c.bounds != nil {
			tel.Histogram(name, c.bounds).Observe(c.n)
		} else {
			tel.Counter(name).Add(c.n)
		}
		c.n = 0
	}
}
