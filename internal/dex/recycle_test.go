package dex

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// methodSet draws n methods the way the generator lays them out: runs of
// 1–12 methods of one class, classes drawn from a small pool so that a
// class recurs after other classes ran, names and parameter lists from
// small pools so that overloads and duplicate signatures occur.
// Colliding adds classes that render alike ("a.b" and "a/b").
func methodSet(seed uint64, n int, colliding bool) []Method {
	r := rand.New(rand.NewPCG(seed, 0))
	classes := []string{"com.example.Lib", "com.example.lib.a", "com.example.lib.a$b", "org.x.Y", "Toplevel"}
	if colliding {
		classes = append(classes, "a.b", "a/b", "c", "d(e", "d(g")
	}
	names := []string{"a", "b", "load", "x(y", "x", "run"}
	params := [][]string{nil, {"I"}, {"J"}, {"I", "J"}, {"Ljava/lang/String;"}, {"[B", "Z", "I"}}
	returns := []string{"V", "I", "Ljava/lang/Object;"}
	var out []Method
	for len(out) < n {
		class := classes[r.IntN(len(classes))]
		for run := 1 + r.IntN(12); run > 0 && len(out) < n; run-- {
			out = append(out, Method{Class: class, Name: names[r.IntN(len(names))], Params: params[r.IntN(len(params))], Return: returns[r.IntN(len(returns))]})
		}
	}
	return out
}

// fill adds every method and returns which ones were rejected.
func fill(f *File, methods []Method) []int {
	var rejected []int
	for i, m := range methods {
		if err := f.AddMethod(m); err != nil {
			rejected = append(rejected, i)
		}
	}
	return rejected
}

// sameFile fails unless got answers every lookup exactly as want does:
// each signature, method and its lookups, every qualified name of the set
// and a few absent ones, Translate at every arity, and the encoding.
func sameFile(t *testing.T, name string, got, want *File, methods []Method) {
	t.Helper()
	if got.MethodCount() != want.MethodCount() {
		t.Fatalf("%s: %d methods, want %d", name, got.MethodCount(), want.MethodCount())
	}
	for i := 0; i < want.MethodCount(); i++ {
		gs, _ := got.SignatureAt(i)
		ws, _ := want.SignatureAt(i)
		gm, _ := got.MethodAt(i)
		wm, _ := want.MethodAt(i)
		if gs != ws || !reflect.DeepEqual(gm, wm) {
			t.Fatalf("%s: method %d is %+v %q, want %+v %q", name, i, gm, gs, wm, ws)
		}
		if gl, ok := got.LookupSignature(ws); !ok || !reflect.DeepEqual(gl, wm) {
			t.Fatalf("%s: LookupSignature(%q) = %+v, %v; want %+v", name, ws, gl, ok, wm)
		}
	}
	qualified := []string{"com.example.Lib.absent", "a.b.zz", "nope", ""}
	for _, m := range methods {
		qualified = append(qualified, m.QualifiedName())
		if _, ok := got.LookupSignature(m.TypeSignature() + "V"); ok {
			t.Fatalf("%s: LookupSignature found the absent %q", name, m.TypeSignature()+"V")
		}
	}
	gt, wt := NewSignatureTranslator(got), NewSignatureTranslator(want)
	for _, q := range qualified {
		if g, w := got.LookupQualified(q), want.LookupQualified(q); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: LookupQualified(%q) = %+v, want %+v", name, q, g, w)
		}
		for arity := -1; arity <= 4; arity++ {
			gs, gok := gt.Translate(q, arity)
			ws, wok := wt.Translate(q, arity)
			if gs != ws || gok != wok {
				t.Fatalf("%s: Translate(%q, %d) = %q, %v; want %q, %v", name, q, arity, gs, gok, ws, wok)
			}
		}
	}
	if g, w := got.AppendEncode(nil), want.AppendEncode(nil); !bytes.Equal(g, w) {
		t.Fatalf("%s: encoding differs from a fresh file's", name)
	}
}

// A reset file refilled with a larger, a smaller and a colliding-render
// set, each with rejected duplicates, answers every lookup and encodes
// exactly as a fresh file filled with the same set: nothing of what it
// held before, in its arenas, indexes or chains, shows through.
func TestResetMatchesFresh(t *testing.T) {
	created := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	f := NewFileSized(created, 100)
	fill(f, methodSet(1, 800, true))
	for _, tc := range []struct {
		name      string
		seed      uint64
		n         int
		colliding bool
	}{{"larger", 2, 5000, false}, {"smaller", 3, 60, false}, {"colliding", 4, 900, true}} {
		methods := methodSet(tc.seed, tc.n, tc.colliding)
		f.Reset(created, tc.n/2)
		fresh := NewFileSized(created, tc.n/2)
		rejected := fill(f, methods)
		if want := fill(fresh, methods); !reflect.DeepEqual(rejected, want) {
			t.Fatalf("%s: the reset file rejected %v, a fresh one %v", tc.name, rejected, want)
		}
		if len(rejected) == 0 {
			t.Fatalf("%s: no duplicate was rejected; the set must exercise rejection", tc.name)
		}
		sameFile(t, tc.name, f, fresh, methods)
	}
}

// usedFile returns a file that held methods of the classes the tests
// below use, Reset for n methods: stale bytes in its arenas, and stale
// entries for its indexes and chains to leak, if Reset left any.
func usedFile(n int) *File {
	f := NewFileSized(time.Time{}, 3)
	for i := 0; i < 300; i++ {
		for _, class := range []string{"com.example.Lib", "a.b", "a/b", "c", "d(e"} {
			_ = f.AddMethod(Method{Class: class, Name: "m" + strconv.Itoa(i), Params: []string{"I", "Ljava/lang/String;"}, Return: "V"})
			_ = f.AddMethod(Method{Class: class, Name: "x(y", Params: []string{strconv.Itoa(i)}, Return: "I"})
		}
	}
	f.Reset(time.Time{}, n)
	return f
}

// The idle list holds at most one File per processor, and a File whose
// method list grew past the cap (a 400k-method app) is dropped on
// release; Recycled reuses an idle File and otherwise makes one.
func TestReleaseRetentionBound(t *testing.T) {
	defer SetRecycling(SetRecycling(RecycleOn))
	huge := NewFileSized(time.Time{}, 400_000)
	huge.Release()
	if len(idleFiles) != 0 {
		t.Fatalf("a File sized for 400k methods was kept (cap %d methods)", maxIdleMethods)
	}
	released := map[*File]bool{}
	for i := 0; i < runtime.GOMAXPROCS(0)+3; i++ {
		f := usedFile(10)
		released[f] = true
		f.Release()
	}
	if len(idleFiles) != cap(idleFiles) || cap(idleFiles) != runtime.GOMAXPROCS(0) {
		t.Fatalf("idle list holds %d Files (room for %d), want one per processor (%d)", len(idleFiles), cap(idleFiles), runtime.GOMAXPROCS(0))
	}
	created := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)
	f := Recycled(created, 50, 100)
	if !released[f] || f.MethodCount() != 0 || !f.Created.Equal(created) {
		t.Fatalf("Recycled returned a File that was not idle or not empty: released %t, %d methods, created %v", released[f], f.MethodCount(), f.Created)
	}
	SetRecycling(RecycleOff)
	usedFile(10).Release()
	if len(idleFiles) != 0 {
		t.Fatal("RecycleOff kept a released File")
	}
}

// Under RecyclePoison a released File's bytes are overwritten at once: a
// signature read before the release and kept past it reads 0xAA.
func TestReleasePoisons(t *testing.T) {
	defer SetRecycling(SetRecycling(RecyclePoison))
	f := usedFile(4)
	if err := f.AddMethod(Method{Class: "a.B", Name: "f", Params: []string{"I"}, Return: "V"}); err != nil {
		t.Fatal(err)
	}
	sig, _ := f.SignatureAt(0)
	m, _ := f.MethodAt(0)
	f.Release()
	if sig != string(bytes.Repeat([]byte{0xAA}, len(sig))) || m.Params[0] != poisonParam {
		t.Fatalf("a released File still reads %q %v", sig, m.Params)
	}
}
