package dex

import (
	"fmt"
	"runtime"
	"slices"
	"time"
	"unsafe"
)

// Check validates an SDEX container without building a File and returns
// how many methods it defines. It runs Decode's walk, so it rejects
// exactly what Decode rejects, duplicate signatures included, but it
// keeps no method, index or arena: each signature is rendered into one
// scratch buffer, a method of the previous method's class copying its
// descriptor, and a set over that buffer finds duplicates. Both are
// reused from one Check to the next, so checking a container like the
// last one allocates little beyond its string pool's headers.
func Check(data []byte) (methods int, err error) {
	var c *checker
	select {
	case c = <-idleCheckers:
	default:
		c = new(checker)
	}
	defer c.release()
	if err := walk(data, c, true); err != nil {
		return 0, err
	}
	return len(c.seen), nil
}

// checker is Check's visitor.
type checker struct {
	// sigs holds every signature rendered so far, back to back; seen's
	// keys point into it. A key is never written again while it is in
	// the set: rendering only appends, and when append moves the buffer
	// the old one stays as it was.
	sigs []byte
	seen map[string]struct{}
	// class is the last method's class and desc the offset in sigs of its
	// rendered descriptor, which the next method of the class copies; -1
	// before the first method.
	class string
	desc  int
}

// idleCheckers holds checkers between Checks, one for each processor
// that may be checking at once. A sync.Pool would be emptied at every
// GC, and a campaign collects every few apps: each refill is a fresh
// scratch as large as the container's signatures.
var idleCheckers = make(chan *checker, runtime.GOMAXPROCS(0))

// A checker, an encode scratch or a released File that held more than
// this many signature bytes or methods (far past a generated app) is
// dropped instead of kept.
const (
	maxIdleSigBytes = 16 << 20
	maxIdleMethods  = 1 << 18
)

// start sizes a fresh checker for the container; a reused one has
// usually grown to a container like it already.
func (c *checker) start(_ time.Time, _, presize int) {
	c.sigs = slices.Grow(c.sigs[:0], presize*sigBytesPerMethod)
	if c.seen == nil {
		c.seen = make(map[string]struct{}, presize)
	}
	c.desc = -1
}

func (c *checker) method(m Method) error {
	n := len(c.sigs)
	if c.desc >= 0 && m.Class == c.class {
		c.sigs = append(c.sigs, c.sigs[c.desc:c.desc+len("L;")+len(m.Class)]...)
	} else {
		c.sigs = appendDescriptor(c.sigs, m.Class)
	}
	c.class, c.desc = m.Class, n
	c.sigs = appendMember(c.sigs, m)
	sig := c.sigs[n:]
	// One probe: insert and see whether the set grew. A duplicate's
	// insert replaces the original key with its equal; the check fails
	// and release clears the set either way.
	before := len(c.seen)
	c.seen[unsafe.String(unsafe.SliceData(sig), len(sig))] = struct{}{}
	if len(c.seen) == before {
		return fmt.Errorf("dex: duplicate method signature %s", sig)
	}
	return nil
}

func (c *checker) release() {
	if cap(c.sigs) > maxIdleSigBytes || len(c.seen) > maxIdleMethods {
		return
	}
	clear(c.seen)
	c.sigs = c.sigs[:0]
	c.class = ""
	select {
	case idleCheckers <- c:
	default:
	}
}
