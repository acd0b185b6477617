package dex

import (
	"bytes"
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
	// because committed arena bytes are never written again and a chunk
	// stays live as long as any string into it does.
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
	// byQualified indexes overloads by their signature's prefix through
	// its first '(' ("La/b;->m("), a substring of the arena; next chains
	// the methods of one prefix in definition order, -1 ending the chain.
	// Classes that render alike ("a.b" and "a/b") share a chain, so a
	// lookup keeps only the entries of its own class and name.
	byQualified map[string]overloads
	next        []int32
}

// overloads are the first and last method index of one qualified-index
// chain.
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
		Created:     created,
		methods:     make([]Method, 0, n),
		sigs:        make([]string, 0, n),
		expect:      expect,
		bySig:       make(map[string]int32, n),
		byQualified: make(map[string]overloads, n),
		next:        make([]int32, 0, n),
	}
	if n > 0 {
		f.sigArena.chunk = make([]byte, 0, n*sigBytesPerMethod)
		f.paramArena.chunk = make([]string, 0, n+n/2)
	}
	return f
}

// AddMethod appends a method definition and renders its type signature,
// the only time it is rendered. Duplicate type signatures are rejected: a
// dex file defines each signature at most once, and a rejected method
// leaves the file as it was.
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
	rendered := appendSignature(f.sigArena.free()[:0], m)
	if _, dup := f.bySig[string(rendered)]; dup {
		return fmt.Errorf("dex: duplicate method signature %s", rendered)
	}
	sig := f.sigArena.take(len(rendered))
	if len(m.Params) > 0 {
		f.paramArena.reserve(len(m.Params), idx, f.expect)
		copy(f.paramArena.free(), m.Params)
		m.Params = f.paramArena.take(len(m.Params))
	} else {
		m.Params = nil
	}
	f.methods = append(f.methods, m)
	f.sigs = append(f.sigs, unsafe.String(unsafe.SliceData(sig), len(sig)))
	s := f.sigs[idx]
	f.bySig[s] = int32(idx)
	f.next = append(f.next, -1)
	key := s[:strings.IndexByte(s, '(')+1]
	o, ok := f.byQualified[key]
	if ok {
		f.next[o.last] = int32(idx)
	} else {
		o.first = int32(idx)
	}
	o.last = int32(idx)
	f.byQualified[key] = o
	return nil
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

// maxStackKey bounds the qualified-index key firstOverload renders on the
// stack; a longer key (class and method name past ~250 bytes together)
// allocates.
const maxStackKey = 256

// firstOverload splits qualified into its class and method name and
// returns them with the index of the first method of that name, or -1.
// The name splits at its last '.': method names never contain one, class
// names do.
func (f *File) firstOverload(qualified string) (class, name string, i int32) {
	dot := strings.LastIndexByte(qualified, '.')
	if dot < 0 {
		return "", "", -1
	}
	class, name = qualified[:dot], qualified[dot+1:]
	// The key is what AddMethod cut from the signature: the rendering of
	// class and name through its first '('.
	var buf [maxStackKey]byte
	key := appendDescriptor(buf[:0], class)
	key = append(key, "->"...)
	key = append(key, name...)
	key = append(key, '(')
	key = key[:bytes.IndexByte(key, '(')+1]
	o, ok := f.byQualified[string(key)]
	if !ok {
		return class, name, -1
	}
	return class, name, f.nextOverload(o.first, class, name)
}

// nextOverload returns the first index from i on along its
// qualified-index chain whose method has exactly class and name, or -1.
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
