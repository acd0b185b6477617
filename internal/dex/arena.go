package dex

// arena is append-only storage handed out in chunks. The caller writes
// new elements into the free tail of the current chunk (reserve makes
// room) and take commits them. A full chunk is replaced by a fresh one
// and never written again; whatever was handed out of it keeps it alive.
// So a committed element is never moved or modified until reset, which is
// what lets File point strings into its byte arena.
type arena[T any] struct {
	chunk []T // the current chunk; its length is what has been committed
	used  int // elements committed over all chunks
	// keep is the largest chunk allocated so far, the one reset keeps.
	// The current chunk at the end of a file is often a small tail chunk:
	// keeping that one would reallocate on every reuse.
	keep []T
}

// minChunk is the smallest chunk an arena allocates, in elements.
const minChunk = 64

// reserve makes room for n more elements in the current chunk. done is
// the number of methods stored so far and expect the number the file was
// sized for. A fresh chunk is sized for the methods still expected at the
// average per method so far, with an eighth to spare, but never more than
// double the chunk it replaces: an arena takes O(log n) chunks, and a
// forged expectation cannot reserve more than the arena already holds.
func (a *arena[T]) reserve(n, done, expect int) {
	if cap(a.chunk)-len(a.chunk) >= n {
		return
	}
	size := 2 * cap(a.chunk)
	if left := expect - done; left > 0 && done > 0 {
		size = min(size, a.used*left/done*9/8)
	}
	a.grow(max(size, n, minChunk))
}

// grow makes a fresh chunk of the given capacity current.
func (a *arena[T]) grow(size int) {
	a.chunk = make([]T, 0, size)
	if size > cap(a.keep) {
		a.keep = a.chunk
	}
}

// reset empties the arena for a file expected to take about want
// elements. It keeps its largest chunk when that holds want, and
// otherwise replaces it with one twice its size (but not past limit, nor
// short of want), so a run of files of varying size reallocates only on
// a new maximum. Every element handed out before is released: the caller
// must hold none.
func (a *arena[T]) reset(want, limit int) {
	a.used = 0
	if old := cap(a.keep); want > old {
		a.grow(max(want, min(2*old, limit), minChunk))
		return
	}
	a.chunk = a.keep[:0]
}

// free is the current chunk's free tail, where reserved elements are
// written before take commits them.
func (a *arena[T]) free() []T { return a.chunk[len(a.chunk):cap(a.chunk)] }

// take commits the next n elements of the free tail and returns them,
// capacity-limited so that appending to them cannot reach into the arena.
func (a *arena[T]) take(n int) []T {
	l := len(a.chunk)
	a.chunk = a.chunk[:l+n]
	a.used += n
	return a.chunk[l : l+n : l+n]
}
