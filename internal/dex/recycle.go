package dex

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Reused files. Generating an app builds a File of thousands of methods
// that the campaign drops once the app's run is analyzed; Recycled and
// Release let the next app build into that File's storage instead of
// allocating its own (DESIGN.md, "Reused scratch").

// idleFiles holds released Files until Recycled takes one, one for each
// processor that may be generating at once; like idleCheckers, it is not
// emptied at every GC as a sync.Pool would be.
var idleFiles = make(chan *File, runtime.GOMAXPROCS(0))

// Recycled returns an empty File created at created and sized for n
// methods: a released File, Reset, when one is idle, and otherwise a new
// one. A released File too small for n grows, to twice its room but not
// past room for limit methods (nor short of n): a caller that knows the
// sizes it expects keeps the files it recycles from growing far past
// them.
func Recycled(created time.Time, n, limit int) *File {
	select {
	case f := <-idleFiles:
		f.reset(created, n, min(limit, maxIdleMethods))
		return f
	default:
		return NewFileSized(created, n)
	}
}

// Release empties f and hands it to a later Recycled. The caller gives f
// up: neither it nor anything it passed f's methods, signatures or
// parameter lists to may read them again, since the next Recycled writes
// over their bytes. A File whose method list or arenas grew past what
// Check keeps is dropped (Reset's doubling never grows them past it), and
// so is one released while the idle list is full.
func (f *File) Release() {
	if cap(f.methods) > maxIdleMethods || cap(f.sigArena.keep) > maxIdleSigBytes || cap(f.paramArena.keep) > 2*maxIdleMethods {
		return
	}
	switch Recycling(recycling.Load()) {
	case RecycleOff:
		return
	case RecyclePoison:
		f.poison()
	default:
		f.Reset(time.Time{}, 0)
	}
	select {
	case idleFiles <- f:
	default:
	}
}

// Recycling is what Release does with a File. Campaigns always run with
// RecycleOn; the other two exist for tests of the rule that nothing reads
// a File after its release.
type Recycling int32

const (
	// RecycleOn keeps released Files for reuse.
	RecycleOn Recycling = iota
	// RecycleOff drops released Files: every Recycled File is new.
	RecycleOff
	// RecyclePoison overwrites everything a released File's arenas hold
	// with 0xAA bytes before keeping it, so a reader that outlived the
	// release reads poison instead of the bytes it expects.
	RecyclePoison
)

var recycling atomic.Int32

// SetRecycling switches what Release does, empties the idle list so that
// no File released before the switch is reused after it, and returns the
// previous setting.
func SetRecycling(r Recycling) Recycling {
	prev := Recycling(recycling.Swap(int32(r)))
	for {
		select {
		case <-idleFiles:
		default:
			return prev
		}
	}
}

// poison empties f as Reset does, then fills every chunk its arenas held
// at the release, committed bytes and free tail alike, with 0xAA: each
// signature byte, and each parameter string with a string of them.
func (f *File) poison() {
	sigs := [][]byte{f.sigArena.chunk, f.sigArena.keep}
	params := [][]string{f.paramArena.chunk, f.paramArena.keep}
	// Reset first: the indexes must be cleared before their keys' bytes
	// change under them.
	f.Reset(time.Time{}, 0)
	for _, c := range sigs {
		c = c[:cap(c)]
		for i := range c {
			c[i] = 0xAA
		}
	}
	for _, c := range params {
		c = c[:cap(c)]
		for i := range c {
			c[i] = poisonParam
		}
	}
}

// poisonParam is what a poisoned File's parameter arena holds.
const poisonParam = "\xAA\xAA\xAA\xAA\xAA\xAA\xAA\xAA"
