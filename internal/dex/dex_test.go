package dex

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleMethod() Method {
	return Method{
		Class:  "com.unity3d.ads.android.cache.b",
		Name:   "doInBackground",
		Params: []string{"[Ljava/lang/String;"},
		Return: "Ljava/lang/Object;",
	}
}

func TestTypeSignatureSmaliConvention(t *testing.T) {
	m := sampleMethod()
	want := "Lcom/unity3d/ads/android/cache/b;->doInBackground([Ljava/lang/String;)Ljava/lang/Object;"
	if got := m.TypeSignature(); got != want {
		t.Errorf("TypeSignature() = %q, want %q", got, want)
	}
}

func TestParseTypeSignatureRoundTrip(t *testing.T) {
	cases := []Method{
		sampleMethod(),
		{Class: "a.b.c", Name: "a", Params: nil, Return: "V"},
		{Class: "android.os.AsyncTask$2", Name: "call", Params: nil, Return: "Ljava/lang/Object;"},
		{Class: "x.Y", Name: "f", Params: []string{"I", "J", "[B", "[[Ljava/lang/String;"}, Return: "Z"},
	}
	for _, m := range cases {
		parsed, err := ParseTypeSignature(m.TypeSignature())
		if err != nil {
			t.Errorf("ParseTypeSignature(%q): %v", m.TypeSignature(), err)
			continue
		}
		if parsed.Class != m.Class || parsed.Name != m.Name || parsed.Return != m.Return ||
			!reflect.DeepEqual(normalize(parsed.Params), normalize(m.Params)) {
			t.Errorf("round trip changed %+v into %+v", m, parsed)
		}
	}
}

func normalize(p []string) []string {
	if len(p) == 0 {
		return nil
	}
	return p
}

func TestParseTypeSignatureErrors(t *testing.T) {
	bad := []string{
		"",
		"no-arrow-here",
		"Lcom/x;->",
		"Lcom/x;->f",
		"Lcom/x;->f(",
		"Lcom/x;->f()",         // missing return
		"Lcom/x;->f(Q)V",       // unknown descriptor
		"Lcom/x;->f([)V",       // dangling array
		"Lcom/x;->f(Lunterm)V", // unterminated class
		"com.x->f()V",          // class not in descriptor form
		"Lcom/x;->f()VV",       // two return descriptors
		"Lcom/x;->f()Lunterm",  // unterminated return
	}
	for _, sig := range bad {
		if _, err := ParseTypeSignature(sig); err == nil {
			t.Errorf("ParseTypeSignature(%q) should fail", sig)
		}
	}
}

func TestDescriptorConversions(t *testing.T) {
	if got := DescriptorForClass("java.lang.String"); got != "Ljava/lang/String;" {
		t.Errorf("DescriptorForClass = %q", got)
	}
	cls, err := ClassForDescriptor("Ljava/lang/String;")
	if err != nil || cls != "java.lang.String" {
		t.Errorf("ClassForDescriptor = %q, %v", cls, err)
	}
	if _, err := ClassForDescriptor("I"); err == nil {
		t.Error("primitive descriptor should not convert to a class")
	}
}

func TestQualifiedNameAndPackage(t *testing.T) {
	m := sampleMethod()
	if got := m.QualifiedName(); got != "com.unity3d.ads.android.cache.b.doInBackground" {
		t.Errorf("QualifiedName = %q", got)
	}
	if got := m.Package(); got != "com.unity3d.ads.android.cache" {
		t.Errorf("Package = %q", got)
	}
	solo := Method{Class: "Toplevel", Name: "f", Return: "V"}
	if got := solo.Package(); got != "" {
		t.Errorf("default-package method Package() = %q, want empty", got)
	}
}

func TestFileAddAndLookup(t *testing.T) {
	f := NewFile(time.Now())
	m := sampleMethod()
	if err := f.AddMethod(m); err != nil {
		t.Fatal(err)
	}
	if err := f.AddMethod(m); err == nil {
		t.Error("duplicate signature should be rejected")
	}
	// An overload with different params is fine.
	over := m
	over.Params = []string{"I"}
	if err := f.AddMethod(over); err != nil {
		t.Fatalf("overload rejected: %v", err)
	}
	if f.MethodCount() != 2 {
		t.Errorf("MethodCount = %d, want 2", f.MethodCount())
	}
	if _, ok := f.LookupSignature(m.TypeSignature()); !ok {
		t.Error("LookupSignature missed an added method")
	}
	variants := f.LookupQualified(m.QualifiedName())
	if len(variants) != 2 {
		t.Errorf("LookupQualified returned %d variants, want 2", len(variants))
	}
	if _, err := f.MethodAt(5); err == nil {
		t.Error("MethodAt out of range should fail")
	}
}

func TestClassesAndPackagesSorted(t *testing.T) {
	f := NewFile(time.Time{})
	for i, cls := range []string{"b.pkg.C", "a.pkg.B", "a.pkg.B"} {
		if err := f.AddMethod(Method{Class: cls, Name: "f" + string(rune('a'+i)), Return: "V"}); err != nil {
			t.Fatal(err)
		}
	}
	classes := f.Classes()
	if !reflect.DeepEqual(classes, []string{"a.pkg.B", "b.pkg.C"}) {
		t.Errorf("Classes = %v", classes)
	}
	pkgs := f.Packages()
	if !reflect.DeepEqual(pkgs, []string{"a.pkg", "b.pkg"}) {
		t.Errorf("Packages = %v", pkgs)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := NewFile(time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC))
	methods := []Method{
		sampleMethod(),
		{Class: "a.b.C", Name: "g", Params: []string{"I", "I"}, Return: "I"},
		{Class: "a.b.C", Name: "g", Params: []string{"J"}, Return: "I"},
		{Class: "x.y.Z$1", Name: "run", Return: "V"},
	}
	for _, m := range methods {
		if err := f.AddMethod(m); err != nil {
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
	if !decoded.Created.Equal(f.Created) {
		t.Errorf("Created changed: %v != %v", decoded.Created, f.Created)
	}
	if !reflect.DeepEqual(decoded.Methods(), f.Methods()) {
		t.Error("method lists differ after round trip")
	}
}

func TestEncodeDecodeDefaultTimestamp(t *testing.T) {
	f := NewFile(DefaultDexTime)
	if err := f.AddMethod(Method{Class: "a.B", Name: "f", Return: "V"}); err != nil {
		t.Fatal(err)
	}
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !decoded.Created.Equal(DefaultDexTime) {
		t.Errorf("default dex time not preserved: %v", decoded.Created)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a dex"),
		[]byte("SDEX"),         // truncated after magic
		[]byte("SDEX\x09\x00"), // bad version
		append([]byte("SDEX\x01\x00"), make([]byte, 4)...), // truncated body
	}
	for _, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("Decode(%q) should fail", data)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	f := NewFile(time.Now())
	for i := 0; i < 20; i++ {
		if err := f.AddMethod(Method{Class: "a.B", Name: "f" + string(rune('a'+i)), Return: "V"}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(data) / 4, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:cut]); err == nil {
			t.Errorf("Decode of %d/%d bytes should fail", cut, len(data))
		}
	}
}

// TestEncodeDecodeProperty round-trips generated method sets.
func TestEncodeDecodeProperty(t *testing.T) {
	descriptors := []string{"V", "I", "J", "Z", "[B", "Ljava/lang/String;", "[Ljava/lang/Object;"}
	check := func(seed uint16) bool {
		f := NewFile(time.Unix(int64(seed)*1000, 0).UTC())
		n := int(seed%40) + 1
		for i := 0; i < n; i++ {
			m := Method{
				Class:  "p" + strings.Repeat("x", int(seed%5)) + ".C" + string(rune('A'+i%26)),
				Name:   "m" + string(rune('a'+(i*7)%26)),
				Params: []string{descriptors[(i+int(seed))%len(descriptors)]},
				Return: descriptors[i%len(descriptors)],
			}
			if m.Params[0] == "V" {
				m.Params = nil // void is not a parameter type
			}
			if err := f.AddMethod(m); err != nil {
				// Duplicate within the generated set: skip.
				continue
			}
		}
		data, err := f.Encode()
		if err != nil {
			return false
		}
		decoded, err := Decode(data)
		if err != nil {
			return false
		}
		for _, file := range []*File{f, decoded} {
			if err := checkRenderedOnce(file); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		return reflect.DeepEqual(decoded.Methods(), f.Methods())
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// checkRenderedOnce holds every reader of a file's stored signatures to
// what rendering each method afresh gives: SignatureAt, the disassembly's
// sorted list, and its membership test.
func checkRenderedOnce(f *File) error {
	rendered := make([]string, 0, f.MethodCount())
	for i := 0; i < f.MethodCount(); i++ {
		m, _ := f.MethodAt(i)
		sig, err := f.SignatureAt(i)
		if err != nil || sig != m.TypeSignature() {
			return fmt.Errorf("SignatureAt(%d) = %q, %v; want %q", i, sig, err, m.TypeSignature())
		}
		rendered = append(rendered, sig)
	}
	sort.Strings(rendered)
	d := DisassembleFile(f)
	if !reflect.DeepEqual(d.Signatures(), rendered) || d.MethodCount != len(rendered) {
		return fmt.Errorf("disassembly %d/%v, want sorted renderings %v", d.MethodCount, d.Signatures(), rendered)
	}
	for _, sig := range rendered {
		if !d.Contains(sig) {
			return fmt.Errorf("disassembly misses %q", sig)
		}
	}
	if d.Contains("Lnot/a/Member;->f()V") {
		return fmt.Errorf("disassembly contains a non-member")
	}
	if _, err := f.SignatureAt(f.MethodCount()); err == nil {
		return fmt.Errorf("SignatureAt past the end should fail")
	}
	return nil
}

func TestDisassemble(t *testing.T) {
	f := NewFile(time.Now())
	m1 := sampleMethod()
	m2 := Method{Class: "a.B", Name: "f", Return: "V"}
	for _, m := range []Method{m1, m2} {
		if err := f.AddMethod(m); err != nil {
			t.Fatal(err)
		}
	}
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	d, err := Disassemble(data)
	if err != nil {
		t.Fatal(err)
	}
	sigs := d.Signatures()
	if d.MethodCount != 2 || len(sigs) != 2 {
		t.Errorf("disassembly has %d/%d entries, want 2", d.MethodCount, len(sigs))
	}
	if !d.Contains(m1.TypeSignature()) || !d.Contains(m2.TypeSignature()) {
		t.Error("disassembly missing signatures")
	}
	if d.Contains("La/B;->g()V") {
		t.Error("disassembly contains a signature it should not")
	}
	// Signatures are sorted.
	for i := 1; i < len(sigs); i++ {
		if sigs[i-1] > sigs[i] {
			t.Error("signatures not sorted")
		}
	}
	if _, err := Disassemble([]byte("junk")); err == nil {
		t.Error("Disassemble of junk should fail")
	}
}

func TestSignatureTranslator(t *testing.T) {
	f := NewFile(time.Now())
	overloads := []Method{
		{Class: "com.x.C", Name: "load", Params: nil, Return: "V"},
		{Class: "com.x.C", Name: "load", Params: []string{"I"}, Return: "V"},
		{Class: "com.x.C", Name: "load", Params: []string{"I", "J"}, Return: "V"},
	}
	for _, m := range overloads {
		if err := f.AddMethod(m); err != nil {
			t.Fatal(err)
		}
	}
	// Another class's method in between: the overloads' chain must skip it.
	if err := f.AddMethod(Method{Class: "com.x.D", Name: "load", Params: []string{"I"}, Return: "V"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddMethod(Method{Class: "com.x.C", Name: "load", Params: []string{"I", "I", "I"}, Return: "V"}); err != nil {
		t.Fatal(err)
	}
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for name, file := range map[string]*File{"built": f, "decoded": decoded} {
		tr := NewSignatureTranslator(file)
		sig, ok := tr.Translate("com.x.C.load", 2)
		if !ok || sig != overloads[2].TypeSignature() {
			t.Errorf("%s: Translate arity 2 = %q, %v", name, sig, ok)
		}
		sig, ok = tr.Translate("com.x.C.load", 3)
		if !ok || sig != "Lcom/x/C;->load(III)V" {
			t.Errorf("%s: Translate arity 3 = %q, %v", name, sig, ok)
		}
		sig, ok = tr.Translate("com.x.C.load", -1)
		if !ok || sig != overloads[0].TypeSignature() {
			t.Errorf("%s: Translate arity -1 = %q, %v", name, sig, ok)
		}
		// Arity mismatch falls back to the first variant.
		sig, ok = tr.Translate("com.x.C.load", 9)
		if !ok || sig != overloads[0].TypeSignature() {
			t.Errorf("%s: Translate arity 9 = %q, %v", name, sig, ok)
		}
		for _, unknown := range []string{"java.net.Socket.connect", "com.x.C.lo", "load", ""} {
			if _, ok := tr.Translate(unknown, 2); ok {
				t.Errorf("%s: %q should not resolve in the app dex", name, unknown)
			}
		}
		if got := len(file.LookupQualified("com.x.C.load")); got != 4 {
			t.Errorf("%s: LookupQualified found %d overloads, want 4", name, got)
		}
	}
}

// The render-once property: disassembling a file reads the signatures
// AddMethod stored, so its allocation count does not grow with methods.
func TestDisassembleAllocsIndependentOfMethods(t *testing.T) {
	allocs := func(n int) float64 {
		f := NewFile(time.Time{})
		for i := 0; i < n; i++ {
			if err := f.AddMethod(Method{Class: "a.b.C" + strconv.Itoa(i%7), Name: "m" + strconv.Itoa(i), Return: "V"}); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(20, func() { DisassembleFile(f) })
	}
	if small, large := allocs(10), allocs(1000); small != large || small > 3 {
		t.Errorf("DisassembleFile allocates %.0f for 10 methods and %.0f for 1000, want the same small constant", small, large)
	}
}

// TestDecodeStrict pins the decoder's strictness for containers of
// several shapes: the encoding round-trips, every proper prefix of it is
// rejected (no field may be short-read), and so is the encoding with one
// byte appended (nothing may follow the last method).
func TestDecodeStrict(t *testing.T) {
	cases := map[string][]Method{
		"empty":      nil,
		"one method": {sampleMethod()},
		"shared pool": {
			{Class: "a.B", Name: "f", Params: []string{"I", "J", "[B"}, Return: "V"},
			{Class: "a.B", Name: "g", Params: []string{"I"}, Return: "I"},
			{Class: "a.C", Name: "f", Return: "V"},
		},
	}
	for name, methods := range cases {
		f := NewFile(time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC))
		for _, m := range methods {
			if err := f.AddMethod(m); err != nil {
				t.Fatal(err)
			}
		}
		valid, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := Decode(valid)
		if err != nil {
			t.Fatalf("%s: valid container rejected: %v", name, err)
		}
		if re, err := decoded.Encode(); err != nil || !bytes.Equal(re, valid) {
			t.Errorf("%s: round trip changed the bytes (err %v)", name, err)
		}
		for n := 0; n < len(valid); n++ {
			if _, err := Decode(valid[:n]); err == nil {
				t.Errorf("%s: prefix of %d/%d bytes decoded", name, n, len(valid))
			}
		}
		if _, err := Decode(append(valid[:len(valid):len(valid)], 0)); err == nil {
			t.Errorf("%s: container with a trailing byte decoded", name)
		}
	}
}
