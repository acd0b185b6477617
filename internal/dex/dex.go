package dex

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
	"unsafe"
)

// File is a parsed dex file: an ordered set of method definitions plus the
// creation timestamp that AndroZoo exposes as the "dex date" (§III-A).
//
// A File owns its methods' storage: every signature is rendered into one
// append-only byte arena and every parameter list is copied into one
// []string arena, so building or decoding a file allocates per chunk, not
// per method.
type File struct {
	// Created is the dex creation timestamp. The zero value encodes the
	// "default dex time stamp" (01-01-1980) the paper special-cases during
	// apk selection.
	Created time.Time

	methods []Method
	// sigs[i] is methods[i].TypeSignature(), rendered once by AddMethod
	// into sigArena. Every reader of a signature (SignatureAt, the
	// disassembly, the translator, the ART profiler) shares these strings.
	// They point into the arena through unsafe.String, which is sound
	// because committed arena bytes are never written again until Reset
	// (or Release) and a chunk stays live as long as any string into it
	// does.
	sigs     []string
	sigArena arena[byte]
	// paramArena backs every stored method's Params.
	paramArena arena[string]
	// expect is the number of methods the file was sized for; the arenas
	// size later chunks by it.
	expect int
	// bySig indexes methods by full type signature: AddMethod's duplicate
	// check, Contains and LookupSignature are O(1) each, so even a hostile
	// container decodes in linear time.
	bySig map[string]int32
	// byClass indexes methods by their class descriptor ("La/b;"), the
	// prefix of their signatures and a substring of the arena. Its value
	// is the class's slot in classes: the first and last method of a
	// chain that next links in definition order, -1 ending it. Classes
	// that render alike ("a.b" and "a/b") share a chain, so a lookup keeps
	// only the entries of its own class and name. AddMethod touches the
	// map once per run of same-class methods; cur is the slot of the run
	// the last method added belongs to.
	byClass map[string]int32
	classes []overloads
	next    []int32
	cur     int32
}

// overloads are the first and last method index of one class chain.
type overloads struct{ first, last int32 }

// DefaultDexTime is the default dex timestamp (January 1, 1980 UTC) that
// build toolchains emit when reproducible builds strip real dates.
var DefaultDexTime = time.Date(1980, time.January, 1, 0, 0, 0, 0, time.UTC)

// sigBytesPerMethod is the signature length the byte arena's first chunk
// assumes; generated apps average 63–75 bytes. The parameter arena's first
// chunk assumes 1.5 parameters per method, the generator's mean. Later
// chunks follow the measured averages.
const sigBytesPerMethod = 64

// NewFile creates an empty dex file with the given creation time.
func NewFile(created time.Time) *File { return NewFileSized(created, 0) }

// NewFileSized creates an empty dex file sized for n methods: the method
// list, both indexes and the first chunk of each arena are allocated once,
// up front.
func NewFileSized(created time.Time, n int) *File { return newFile(created, n, n) }

// newFile creates an empty dex file sized for n methods that expects to
// hold expect.
func newFile(created time.Time, n, expect int) *File {
	f := &File{
		Created: created,
		methods: make([]Method, 0, n),
		sigs:    make([]string, 0, n),
		expect:  expect,
		bySig:   make(map[string]int32, n),
		byClass: make(map[string]int32),
		next:    make([]int32, 0, n),
	}
	if n > 0 {
		f.sigArena.grow(n * sigBytesPerMethod)
		f.paramArena.grow(n + n/2)
	}
	return f
}

// Reset empties the file for reuse as a file created at created and
// sized for n methods. It keeps the method list, the chains and both
// indexes (cleared), and each arena's largest chunk; what is too small
// for n is replaced with room for twice as much, or for n if that is
// more, so a run of files of varying size reallocates only on a new
// maximum. The doubling stops at what Release keeps. Every method,
// signature and parameter list read from the file before is released:
// the caller must hold none of them, since the next AddMethod writes
// over their bytes.
func (f *File) Reset(created time.Time, n int) { f.reset(created, n, maxIdleMethods) }

// reset is Reset with the doubling stopped at room for limit methods.
func (f *File) reset(created time.Time, n, limit int) {
	f.Created, f.expect = created, n
	f.methods = emptied(f.methods, n, limit)
	f.sigs = emptied(f.sigs, n, limit)
	f.next = emptied(f.next, n, limit)
	f.classes = f.classes[:0]
	clear(f.bySig)
	clear(f.byClass)
	f.sigArena.reset(n*sigBytesPerMethod, limit*sigBytesPerMethod)
	f.paramArena.reset(n+n/2, limit+limit/2)
}

// emptied returns s emptied with room for n elements: s itself, its
// elements zeroed so it holds no reference of the file it served, when it
// has the room, and otherwise a fresh slice of twice its capacity, but
// not past limit, nor short of n.
func emptied[T any](s []T, n, limit int) []T {
	if n <= cap(s) {
		clear(s)
		return s[:0]
	}
	return make([]T, 0, max(n, min(2*cap(s), limit)))
}

// AddMethod appends a method definition and renders its type signature,
// the only time it is rendered: a method of the previous method's class
// copies that method's rendered descriptor. Duplicate type signatures are
// rejected: a dex file defines each signature at most once, and a
// rejected method leaves the file as it was.
//
// The file keeps its own copy of m.Params, so the caller may reuse the
// slice. The Params of a method read back from the file alias the file's
// arena and must not be modified.
func (f *File) AddMethod(m Method) error {
	// Render into the arena's free tail; the bytes are committed only
	// once the signature is known to be new.
	idx := len(f.methods)
	if idx >= math.MaxInt32 {
		return fmt.Errorf("dex: a file holds at most %d methods", math.MaxInt32)
	}
	f.sigArena.reserve(signatureLen(m), idx, f.expect)
	desc := len("L;") + len(m.Class)
	rendered := f.sigArena.free()[:0]
	sameClass := idx > 0 && m.Class == f.methods[idx-1].Class
	if sameClass {
		rendered = append(rendered, f.sigs[idx-1][:desc]...)
	} else {
		rendered = appendDescriptor(rendered, m.Class)
	}
	rendered = appendMember(rendered, m)
	s := unsafe.String(unsafe.SliceData(rendered), len(rendered))
	// One probe: insert the signature and see whether the set grew.
	before := len(f.bySig)
	f.bySig[s] = int32(idx)
	if len(f.bySig) == before {
		// The insert replaced the original's key with the uncommitted
		// rendering and its index with idx; put both back.
		orig := f.indexOf(s, desc)
		f.bySig[f.sigs[orig]] = orig
		return fmt.Errorf("dex: duplicate method signature %s", rendered)
	}
	f.sigArena.take(len(rendered))
	if len(m.Params) > 0 {
		f.paramArena.reserve(len(m.Params), idx, f.expect)
		copy(f.paramArena.free(), m.Params)
		m.Params = f.paramArena.take(len(m.Params))
	} else {
		m.Params = nil
	}
	f.methods = append(f.methods, m)
	f.sigs = append(f.sigs, s)
	f.next = append(f.next, -1)
	if !sameClass {
		// The first method of a class run: join the class's chain, or
		// open one.
		k, ok := f.byClass[s[:desc]]
		if !ok {
			k = int32(len(f.classes))
			f.byClass[s[:desc]] = k
			f.classes = append(f.classes, overloads{first: int32(idx), last: -1})
		}
		f.cur = k
	}
	c := &f.classes[f.cur]
	if c.last >= 0 {
		f.next[c.last] = int32(idx)
	}
	c.last = int32(idx)
	return nil
}

// indexOf returns the index of the stored method whose signature is sig,
// which must be stored; desc is the length of the class descriptor sig
// was rendered with. It walks the chain of that descriptor, and the whole
// file only when a class holding "->" rendered sig with another
// descriptor. AddMethod calls it for a rejected duplicate alone, which
// ends a decode and in generation lies on the class just written, so it
// does not make either superlinear.
func (f *File) indexOf(sig string, desc int) int32 {
	if k, ok := f.byClass[sig[:desc]]; ok {
		for i := f.classes[k].first; i >= 0; i = f.next[i] {
			if f.sigs[i] == sig {
				return i
			}
		}
	}
	for i := len(f.sigs) - 1; ; i-- {
		if f.sigs[i] == sig {
			return int32(i)
		}
	}
}

// MethodCount reports the number of method definitions.
func (f *File) MethodCount() int { return len(f.methods) }

// Methods returns a copy of the method list in definition order.
func (f *File) Methods() []Method {
	out := make([]Method, len(f.methods))
	copy(out, f.methods)
	return out
}

// MethodAt returns the i-th method definition.
func (f *File) MethodAt(i int) (Method, error) {
	if err := f.checkIndex(i); err != nil {
		return Method{}, err
	}
	return f.methods[i], nil
}

// SignatureAt returns the type signature of the i-th method definition,
// as AddMethod rendered it.
func (f *File) SignatureAt(i int) (string, error) {
	if err := f.checkIndex(i); err != nil {
		return "", err
	}
	return f.sigs[i], nil
}

func (f *File) checkIndex(i int) error {
	if i < 0 || i >= len(f.methods) {
		return fmt.Errorf("dex: method index %d out of range [0,%d)", i, len(f.methods))
	}
	return nil
}

// LookupSignature returns the method with the given full type signature.
func (f *File) LookupSignature(sig string) (Method, bool) {
	idx, ok := f.bySig[sig]
	if !ok {
		return Method{}, false
	}
	return f.methods[idx], true
}

// LookupQualified returns all overloaded variants sharing the dotted
// qualified name (class + method name), in definition order.
func (f *File) LookupQualified(qualified string) []Method {
	class, name, i := f.firstOverload(qualified)
	var out []Method
	for ; i >= 0; i = f.nextOverload(f.next[i], class, name) {
		out = append(out, f.methods[i])
	}
	return out
}

// maxStackKey bounds the class descriptor firstOverload renders on the
// stack; a longer one (a class name past ~250 bytes) allocates.
const maxStackKey = 256

// firstOverload splits qualified into its class and method name and
// returns them with the index of the first method of that class and name,
// or -1. The name splits at its last '.': method names never contain one,
// class names do.
func (f *File) firstOverload(qualified string) (class, name string, i int32) {
	dot := strings.LastIndexByte(qualified, '.')
	if dot < 0 {
		return "", "", -1
	}
	class, name = qualified[:dot], qualified[dot+1:]
	var buf [maxStackKey]byte
	k, ok := f.byClass[string(appendDescriptor(buf[:0], class))]
	if !ok {
		return class, name, -1
	}
	return class, name, f.nextOverload(f.classes[k].first, class, name)
}

// nextOverload returns the first index from i on along its class chain
// whose method has exactly class and name, or -1.
func (f *File) nextOverload(i int32, class, name string) int32 {
	for ; i >= 0; i = f.next[i] {
		if m := &f.methods[i]; m.Class == class && m.Name == name {
			return i
		}
	}
	return -1
}

// Classes returns the sorted set of distinct class names defined in the
// file.
func (f *File) Classes() []string {
	seen := make(map[string]struct{})
	for _, m := range f.methods {
		seen[m.Class] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Packages returns the sorted set of distinct package names defined in the
// file.
func (f *File) Packages() []string {
	seen := make(map[string]struct{})
	for _, m := range f.methods {
		seen[m.Package()] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
