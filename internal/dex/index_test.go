package dex

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"
)

// Classes whose descriptors render alike ("a.b" and "a/b" are both
// "La/b;") share a qualified-index chain, and names may hold a '(';
// every lookup must still answer for exactly the class and name it was
// asked about, on a built, a decoded and a reset file.
func TestTranslateCollidingRenders(t *testing.T) {
	f := NewFile(time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC))
	reset := usedFile(0)
	for _, m := range []Method{
		{Class: "a.b", Name: "m", Return: "V"},
		{Class: "a/b", Name: "m", Params: []string{"I"}, Return: "V"},
		{Class: "a.b", Name: "m", Params: []string{"J"}, Return: "V"},
		{Class: "c", Name: "x(y", Return: "V"},
		{Class: "c", Name: "x", Params: []string{"I"}, Return: "V"},
		{Class: "c", Name: "x(y", Params: []string{"I"}, Return: "I"},
		{Class: "d(e", Name: "f", Return: "V"},
		{Class: "d(g", Name: "f", Params: []string{"Z"}, Return: "V"},
	} {
		if err := f.AddMethod(m); err != nil {
			t.Fatal(err)
		}
		if err := reset.AddMethod(m); err != nil {
			t.Fatal(err)
		}
	}
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	translations := []struct {
		qualified string
		arity     int
		want      string
	}{
		{"a.b.m", 0, "La/b;->m()V"},
		{"a.b.m", 1, "La/b;->m(J)V"},
		{"a.b.m", -1, "La/b;->m()V"},
		{"a.b.m", 2, "La/b;->m()V"},
		{"a/b.m", 0, "La/b;->m(I)V"},
		{"a/b.m", 1, "La/b;->m(I)V"},
		{"c.x", 0, "Lc;->x(I)V"},
		{"c.x", 1, "Lc;->x(I)V"},
		{"c.x(y", 0, "Lc;->x(y()V"},
		{"c.x(y", 1, "Lc;->x(y(I)I"},
		{"c.x(y", -1, "Lc;->x(y()V"},
		{"d(e.f", 1, "Ld(e;->f()V"},
		{"d(g.f", 0, "Ld(g;->f(Z)V"},
	}
	qualified := map[string][]string{
		"a.b.m":  {"La/b;->m()V", "La/b;->m(J)V"},
		"a/b.m":  {"La/b;->m(I)V"},
		"c.x":    {"Lc;->x(I)V"},
		"c.x(y":  {"Lc;->x(y()V", "Lc;->x(y(I)I"},
		"d(e.f":  {"Ld(e;->f()V"},
		"d(g.f":  {"Ld(g;->f(Z)V"},
		"a.b.n":  nil,
		"a/b":    nil,
		"c.x(":   nil,
		"c.x(y(": nil,
		"d(.f":   nil,
		"d.f":    nil,
		"":       nil,
	}
	for name, file := range map[string]*File{"built": f, "decoded": decoded, "reset": reset} {
		tr := NewSignatureTranslator(file)
		for _, tc := range translations {
			if got, ok := tr.Translate(tc.qualified, tc.arity); !ok || got != tc.want {
				t.Errorf("%s: Translate(%q, %d) = %q, %v; want %q", name, tc.qualified, tc.arity, got, ok, tc.want)
			}
		}
		for q, want := range qualified {
			var got []string
			for _, m := range file.LookupQualified(q) {
				if m.QualifiedName() != q {
					t.Errorf("%s: LookupQualified(%q) returned %s", name, q, m.QualifiedName())
				}
				got = append(got, m.TypeSignature())
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s: LookupQualified(%q) = %q, want %q", name, q, got, want)
			}
			if len(want) == 0 {
				if sig, ok := tr.Translate(q, 0); ok {
					t.Errorf("%s: Translate(%q) = %q, want no match", name, q, sig)
				}
			}
		}
		for i := 0; i < file.MethodCount(); i++ {
			sig, _ := file.SignatureAt(i)
			want, _ := file.MethodAt(i)
			if got, ok := file.LookupSignature(sig); !ok || got.QualifiedName() != want.QualifiedName() || got.TypeSignature() != sig {
				t.Errorf("%s: LookupSignature(%q) = %+v, %v", name, sig, got, ok)
			}
		}
		for _, tc := range translations {
			if allocs := testing.AllocsPerRun(50, func() { tr.Translate(tc.qualified, tc.arity) }); allocs != 0 {
				t.Errorf("%s: Translate(%q) allocates %.0f times, want 0", name, tc.qualified, allocs)
			}
		}
	}
}

// Decoding checks every signature for a duplicate in O(1), so decoding a
// container takes time linear in its methods however many overload one
// qualified name. Both containers hold 64k methods, so they share a heap
// and cache footprint: one is 4k overloads of a name and 60k methods of
// their own names, the other 64k overloads of the name. Linear decoding
// takes about as long for either (0.6–0.9× measured); a duplicate check
// that walked the name's overload chain took 97 times as long for the
// second.
func TestDecodeOverloadsLinear(t *testing.T) {
	// Collections during a decode would grow with its live heap; each
	// timed decode starts from a collected heap and runs none.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const methods = 64 << 10
	decodeTime := func(overloads int) time.Duration {
		f := NewFileSized(time.Time{}, methods)
		for i := 0; i < methods; i++ {
			m := Method{Class: "com.x.C", Name: "load", Return: "V"}
			if i < overloads {
				m.Params = []string{fmt.Sprintf("p%d", i%256), fmt.Sprintf("p%d", i/256)}
			} else {
				m.Name = fmt.Sprintf("m%d", i)
			}
			if err := f.AddMethod(m); err != nil {
				t.Fatal(err)
			}
		}
		data, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		best := time.Duration(1<<63 - 1)
		for run := 0; run < 5; run++ {
			runtime.GC()
			start := time.Now()
			d, err := Decode(data)
			best = min(best, time.Since(start))
			if err != nil || d.MethodCount() != methods {
				t.Fatalf("Decode of %d overloads: %v", overloads, err)
			}
		}
		return best
	}
	few, many := decodeTime(4<<10), decodeTime(methods)
	if ratio := float64(many) / float64(few); ratio >= 32 {
		t.Errorf("decoding 64k overloads took %v, %.0f× the %v for 4k among 64k methods; want under 32× (linear is about 1×)", many, ratio, few)
	}
}
