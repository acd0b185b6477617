package dex

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// File is a parsed dex file: an ordered set of method definitions plus the
// creation timestamp that AndroZoo exposes as the "dex date" (§III-A).
type File struct {
	// Created is the dex creation timestamp. The zero value encodes the
	// "default dex time stamp" (01-01-1980) the paper special-cases during
	// apk selection.
	Created time.Time

	methods []Method
	// sigs[i] is methods[i].TypeSignature(), rendered once by AddMethod.
	// Every reader of a signature (SignatureAt, the disassembly, the
	// translator, the ART profiler) shares these strings.
	sigs []string
	// bySig indexes methods by full type signature for O(1) lookups.
	bySig map[string]int
	// byQualified indexes overloads by (class, method name); next chains
	// the variants in definition order, -1 ending the chain.
	byQualified map[qualKey]overloads
	next        []int
}

// qualKey is a dotted qualified name split into its class and method
// name, so neither indexing nor lookup has to join them.
type qualKey struct{ class, name string }

// overloads are the first and last method index of one qualified name.
type overloads struct{ first, last int }

// DefaultDexTime is the default dex timestamp (January 1, 1980 UTC) that
// build toolchains emit when reproducible builds strip real dates.
var DefaultDexTime = time.Date(1980, time.January, 1, 0, 0, 0, 0, time.UTC)

// NewFile creates an empty dex file with the given creation time.
func NewFile(created time.Time) *File { return newFile(created, 0) }

// newFile creates an empty dex file with room for n methods.
func newFile(created time.Time, n int) *File {
	return &File{
		Created:     created,
		methods:     make([]Method, 0, n),
		sigs:        make([]string, 0, n),
		bySig:       make(map[string]int, n),
		byQualified: make(map[qualKey]overloads, n),
		next:        make([]int, 0, n),
	}
}

// AddMethod appends a method definition and renders its type signature,
// the only time it is rendered. Duplicate type signatures are rejected: a
// dex file defines each signature at most once.
func (f *File) AddMethod(m Method) error {
	sig := m.TypeSignature()
	if _, dup := f.bySig[sig]; dup {
		return fmt.Errorf("dex: duplicate method signature %s", sig)
	}
	idx := len(f.methods)
	f.methods = append(f.methods, m)
	f.sigs = append(f.sigs, sig)
	f.bySig[sig] = idx
	f.next = append(f.next, -1)
	key := qualKey{m.Class, m.Name}
	o, ok := f.byQualified[key]
	if ok {
		f.next[o.last] = idx
	} else {
		o.first = idx
	}
	o.last = idx
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
	first, ok := f.firstOverload(qualified)
	if !ok {
		return nil
	}
	var out []Method
	for i := first; i >= 0; i = f.next[i] {
		out = append(out, f.methods[i])
	}
	return out
}

// firstOverload returns the index of the first method whose qualified
// name is qualified. The name splits at its last '.': method names never
// contain one, class names do.
func (f *File) firstOverload(qualified string) (int, bool) {
	dot := strings.LastIndexByte(qualified, '.')
	if dot < 0 {
		return 0, false
	}
	o, ok := f.byQualified[qualKey{qualified[:dot], qualified[dot+1:]}]
	return o.first, ok
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
