package dex

import (
	"encoding/binary"
	"slices"
	"strconv"
	"testing"
	"time"
)

// AddMethod copies the caller's Params: mutating or appending to the
// caller's slice afterwards, or to a Params read back from the file,
// changes nothing the file holds.
func TestAddMethodCopiesParams(t *testing.T) {
	f := NewFile(time.Time{})
	params := []string{"I", "J"}
	if err := f.AddMethod(Method{Class: "a.B", Name: "f", Params: params, Return: "V"}); err != nil {
		t.Fatal(err)
	}
	params[0] = "Z"
	params = append(params[:1], "[B")
	if err := f.AddMethod(Method{Class: "a.B", Name: "g", Params: params[:1], Return: "V"}); err != nil {
		t.Fatal(err)
	}
	m, _ := f.MethodAt(0)
	if !slices.Equal(m.Params, []string{"I", "J"}) {
		t.Fatalf("stored Params = %v after the caller reused its slice, want [I J]", m.Params)
	}
	// Stored Params are capacity-limited: appending copies instead of
	// writing over the next method's parameters.
	_ = append(m.Params, "X")
	g, _ := f.MethodAt(1)
	if !slices.Equal(g.Params, []string{"Z"}) {
		t.Fatalf("second method's Params = %v, want [Z]", g.Params)
	}
	for i, want := range []string{"La/B;->f(IJ)V", "La/B;->g(Z)V"} {
		if sig, _ := f.SignatureAt(i); sig != want {
			t.Errorf("SignatureAt(%d) = %q, want %q", i, sig, want)
		}
	}
}

// A rejected duplicate consumes nothing: the method count, every stored
// signature, both lookups and the arenas' committed lengths are as they
// were, and the next distinct method is added normally. So on a fresh
// file, and on a reset one that held the same signatures before.
func TestRejectedDuplicateLeavesFileUnchanged(t *testing.T) {
	for name, f := range map[string]*File{"fresh": NewFileSized(time.Time{}, 4), "reset": usedFile(4)} {
		t.Run(name, func(t *testing.T) { rejectedDuplicateLeavesFileUnchanged(t, f) })
	}
}

func rejectedDuplicateLeavesFileUnchanged(t *testing.T, f *File) {
	for i := 0; i < 40; i++ {
		m := Method{Class: "com.example.Lib", Name: "m" + strconv.Itoa(i), Params: []string{"I", "Ljava/lang/String;"}, Return: "V"}
		if err := f.AddMethod(m); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := func() (int, []string, int, int) {
		sigs := make([]string, f.MethodCount())
		for i := range sigs {
			sigs[i], _ = f.SignatureAt(i)
		}
		// Copy the strings' bytes: they alias the arena, which is what
		// must not change.
		for i := range sigs {
			sigs[i] = string([]byte(sigs[i]))
		}
		return f.MethodCount(), sigs, f.sigArena.used, f.paramArena.used
	}
	count, sigs, sigBytes, params := snapshot()
	dup := Method{Class: "com.example.Lib", Name: "m7", Params: []string{"I", "Ljava/lang/String;"}, Return: "V"}
	if err := f.AddMethod(dup); err == nil {
		t.Fatal("duplicate signature accepted")
	}
	count2, sigs2, sigBytes2, params2 := snapshot()
	if count2 != count || !slices.Equal(sigs2, sigs) || sigBytes2 != sigBytes || params2 != params {
		t.Fatalf("rejected duplicate changed the file: %d methods (was %d), %d signature bytes (was %d), %d params (was %d)",
			count2, count, sigBytes2, sigBytes, params2, params)
	}
	if m, ok := f.LookupSignature(dup.TypeSignature()); !ok || m.Name != "m7" {
		t.Errorf("LookupSignature of the original = %+v, %v", m, ok)
	}
	next := Method{Class: "com.example.Lib", Name: "next", Params: []string{"J"}, Return: "I"}
	if err := f.AddMethod(next); err != nil {
		t.Fatalf("add after a rejected duplicate: %v", err)
	}
	if sig, _ := f.SignatureAt(count); sig != next.TypeSignature() {
		t.Errorf("SignatureAt(%d) = %q, want %q", count, sig, next.TypeSignature())
	}
	if _, ok := f.LookupSignature(next.TypeSignature()); !ok {
		t.Error("method added after a rejected duplicate is not indexed")
	}
	for i, want := range sigs {
		if got, _ := f.SignatureAt(i); got != want {
			t.Fatalf("SignatureAt(%d) changed to %q after later adds, want %q", i, got, want)
		}
	}
}

// A class holding "->" can render another class's signature: "a;->b".c
// and "a".("b;->c") are both "La;->b;->c()V". The second is a duplicate
// found off its own class chain; rejecting it must still leave the
// first indexed under its signature and its class.
func TestRejectedDuplicateAcrossClassRenders(t *testing.T) {
	f := NewFile(time.Time{})
	first := Method{Class: "a;->b", Name: "c", Return: "V"}
	if err := f.AddMethod(first); err != nil {
		t.Fatal(err)
	}
	if err := f.AddMethod(Method{Class: "x", Name: "y", Return: "V"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddMethod(Method{Class: "a", Name: "b;->c", Return: "V"}); err == nil {
		t.Fatal("a second method rendering La;->b;->c()V was accepted")
	}
	if m, ok := f.LookupSignature("La;->b;->c()V"); !ok || m.Class != first.Class {
		t.Fatalf("LookupSignature after the rejection = %+v, %v; want the first method", m, ok)
	}
	if got := f.LookupQualified("a;->b.c"); len(got) != 1 || got[0].Class != first.Class {
		t.Fatalf("LookupQualified(a;->b.c) = %+v", got)
	}
	if err := f.AddMethod(Method{Class: "a", Name: "d", Return: "V"}); err != nil || f.MethodCount() != 3 {
		t.Fatalf("add after the rejection: %v, %d methods", err, f.MethodCount())
	}
}

// In files spanning many arena chunks, every stored signature still
// equals a fresh rendering of its method and resolves through the index:
// chunk changes neither move nor overwrite committed bytes. One file is
// unsized (chunks double), one sized far below its method count (chunks
// follow the measured average).
func TestSignaturesAcrossArenaChunks(t *testing.T) {
	const n = 100_000
	for name, f := range map[string]*File{"unsized": NewFile(time.Time{}), "undersized": NewFileSized(time.Time{}, 1000)} {
		chunks := 0
		var last *byte
		for i := 0; i < n; i++ {
			m := Method{
				Class:  "com.example.pkg" + strconv.Itoa(i%97) + ".Class" + strconv.Itoa(i%13),
				Name:   "method" + strconv.Itoa(i),
				Params: []string{"I", "Ljava/lang/String;", "[B"}[:i%4%3],
				Return: "V",
			}
			if err := f.AddMethod(m); err != nil {
				t.Fatal(err)
			}
			if p := chunkBase(f.sigArena.chunk); p != last {
				chunks++
				last = p
			}
		}
		if chunks < 4 {
			t.Fatalf("%s: %d methods used %d signature chunks; the test needs several", name, n, chunks)
		}
		for i := 0; i < n; i++ {
			m, _ := f.MethodAt(i)
			sig, _ := f.SignatureAt(i)
			if want := m.TypeSignature(); sig != want {
				t.Fatalf("%s: SignatureAt(%d) = %q, want %q", name, i, sig, want)
			}
			if got, ok := f.LookupSignature(sig); !ok || got.Name != m.Name {
				t.Fatalf("%s: LookupSignature(%q) = %v, %v", name, sig, got.Name, ok)
			}
		}
		t.Logf("%s: %d methods in %d signature chunks", name, n, chunks)
	}
}

// chunkBase identifies the chunk b is a view of.
func chunkBase(b []byte) *byte {
	if cap(b) == 0 {
		return nil
	}
	return &b[:1][0]
}

// poolContainer encodes n ≤ 8192 distinct methods drawn from one fixed
// string pool (16 classes, 64 names, 8 parameter lists, 4 returns): an
// odd multiplier permutes [0, 8192) so that any prefix of a few hundred
// methods already references every pool string.
func poolContainer(t testing.TB, n int) []byte {
	t.Helper()
	params := [][]string{nil, {"I"}, {"J"}, {"[B"}, {"I", "J"}, {"Ljava/lang/String;"}, {"Landroid/content/Context;", "I"}, {"Ljava/util/Map;", "Ljava/util/List;", "Z"}}
	returns := []string{"V", "I", "Ljava/lang/Object;", "[Ljava/lang/String;"}
	f := NewFile(time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC))
	for i := 0; i < n; i++ {
		j := i * 5063 % 8192 // 5063/8192 ≈ the golden ratio: equidistributed
		m := Method{
			Class:  "com.example.lib" + strconv.Itoa(j/64%16) + ".Impl",
			Name:   "call" + strconv.Itoa(j%64),
			Params: params[j/1024],
			Return: returns[i%4],
		}
		if err := f.AddMethod(m); err != nil {
			t.Fatal(err)
		}
	}
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// Decode allocates per file, not per method: an 8k-method container
// costs at most a few dozen allocations more than a 1k-method one built
// from the same pool — the extra arena chunks and the extra tables of
// the presized maps (Go splits a map into tables of at most 1024 slots).
// A signature and a parameter slice allocated per method cost ~2 per
// method (about 14 000 more at 8000 methods).
func TestDecodeAllocsIndependentOfMethods(t *testing.T) {
	small, large := poolContainer(t, 1000), poolContainer(t, 8000)
	// The pool count follows the magic, version and timestamp.
	if a, b := binary.LittleEndian.Uint32(small[14:]), binary.LittleEndian.Uint32(large[14:]); a != b {
		t.Fatalf("containers have %d and %d pool strings; they must share one pool", a, b)
	}
	allocs := func(data []byte) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Decode(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	a1, a8 := allocs(small), allocs(large)
	if a8-a1 > 96 {
		t.Errorf("Decode allocates %.0f for 1000 methods and %.0f for 8000: %.0f more, want at most 96", a1, a8, a8-a1)
	}
	t.Logf("Decode: %.0f allocs at 1000 methods, %.0f at 8000", a1, a8)
}
