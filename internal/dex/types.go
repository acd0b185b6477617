// Package dex models Dalvik executable (dex) files at the granularity
// Libspector needs: classes organized in hierarchical Java packages, their
// methods with full type signatures, a compact binary container with
// encoder and decoder, and a disassembler that — like dexlib2 in the paper
// (§III-B) — extracts the complete method-signature set of an apk.
package dex

import (
	"fmt"
	"strings"
	"unsafe"
)

// Primitive type descriptors in Dalvik/JVM descriptor syntax.
const (
	DescVoid    = "V"
	DescBoolean = "Z"
	DescByte    = "B"
	DescShort   = "S"
	DescChar    = "C"
	DescInt     = "I"
	DescLong    = "J"
	DescFloat   = "F"
	DescDouble  = "D"
)

// DescriptorForClass converts a dotted Java class name (e.g.
// "java.lang.String") to its descriptor form ("Ljava/lang/String;").
func DescriptorForClass(dotted string) string {
	return "L" + strings.ReplaceAll(dotted, ".", "/") + ";"
}

// appendDescriptor appends DescriptorForClass(dotted) to b, so rendering a
// signature builds no intermediate string.
func appendDescriptor(b []byte, dotted string) []byte {
	b = append(b, 'L')
	for {
		i := strings.IndexByte(dotted, '.')
		if i < 0 {
			break
		}
		b = append(b, dotted[:i]...)
		b = append(b, '/')
		dotted = dotted[i+1:]
	}
	b = append(b, dotted...)
	return append(b, ';')
}

// ClassForDescriptor converts a class descriptor back to dotted form. It
// returns an error for non-class descriptors.
func ClassForDescriptor(desc string) (string, error) {
	if len(desc) < 3 || desc[0] != 'L' || desc[len(desc)-1] != ';' {
		return "", fmt.Errorf("dex: %q is not a class descriptor", desc)
	}
	return strings.ReplaceAll(desc[1:len(desc)-1], "/", "."), nil
}

// Method is a single method definition within a class.
type Method struct {
	// Class is the dotted fully qualified class name, including any inner
	// class suffix ("com.unity3d.ads.android.cache.b",
	// "android.os.AsyncTask$2").
	Class string `json:"class"`
	// Name is the bare method name ("doInBackground").
	Name string `json:"name"`
	// Params are the parameter type descriptors in order.
	Params []string `json:"params"`
	// Return is the return type descriptor.
	Return string `json:"return"`
}

// QualifiedName is the dotted class-plus-method name as it appears in a
// stack frame ("com.unity3d.ads.android.cache.b.doInBackground").
func (m Method) QualifiedName() string {
	return m.Class + "." + m.Name
}

// Package is the dotted package name of the declaring class ("com.unity3d.
// ads.android.cache" for class "com.unity3d.ads.android.cache.b"). A class
// in the default package has an empty package.
func (m Method) Package() string {
	i := strings.LastIndex(m.Class, ".")
	if i < 0 {
		return ""
	}
	return m.Class[:i]
}

// TypeSignature renders the method in smali convention (§III-C, footnote 1):
//
//	Lpackage/name/className;->methodName(inputTypes)returnType
//
// The type signature is the unique identifier attribution operates on; it
// distinguishes overloaded variants of a method within one class.
//
// File.AddMethod renders each method once into its arena and keeps the
// result (File.SignatureAt), so this should not be called again for a
// method already in a file. It is a single allocation.
func (m Method) TypeSignature() string {
	b := appendSignature(make([]byte, 0, signatureLen(m)), m)
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// appendSignature is the one signature renderer: it appends m's type
// signature to b, which grows by exactly signatureLen(m).
func appendSignature(b []byte, m Method) []byte {
	return appendMember(appendDescriptor(b, m.Class), m)
}

// appendMember appends what follows the class descriptor in m's type
// signature ("->name(params)return"), for a renderer that already has
// the descriptor: the one the previous method of the class rendered.
func appendMember(b []byte, m Method) []byte {
	b = append(b, "->"...)
	b = append(b, m.Name...)
	b = append(b, '(')
	for _, p := range m.Params {
		b = append(b, p...)
	}
	b = append(b, ')')
	return append(b, m.Return...)
}

// signatureLen is the length of m's type signature.
func signatureLen(m Method) int {
	n := len("L;->()") + len(m.Class) + len(m.Name) + len(m.Return)
	for _, p := range m.Params {
		n += len(p)
	}
	return n
}

// ParseTypeSignature parses a smali-convention type signature back into a
// Method.
func ParseTypeSignature(sig string) (Method, error) {
	arrow := strings.Index(sig, "->")
	if arrow < 0 {
		return Method{}, fmt.Errorf("dex: signature %q lacks '->'", sig)
	}
	class, err := ClassForDescriptor(sig[:arrow])
	if err != nil {
		return Method{}, fmt.Errorf("dex: bad class in signature %q: %w", sig, err)
	}
	rest := sig[arrow+2:]
	open := strings.IndexByte(rest, '(')
	closeIdx := strings.IndexByte(rest, ')')
	if open <= 0 || closeIdx < open {
		return Method{}, fmt.Errorf("dex: malformed parameter list in signature %q", sig)
	}
	params, err := splitDescriptors(rest[open+1 : closeIdx])
	if err != nil {
		return Method{}, fmt.Errorf("dex: bad parameters in signature %q: %w", sig, err)
	}
	ret := rest[closeIdx+1:]
	if ret == "" {
		return Method{}, fmt.Errorf("dex: missing return type in signature %q", sig)
	}
	if err := validateDescriptor(ret); err != nil {
		return Method{}, fmt.Errorf("dex: bad return type in signature %q: %w", sig, err)
	}
	return Method{Class: class, Name: rest[:open], Params: params, Return: ret}, nil
}

// splitDescriptors tokenizes a concatenated descriptor list such as
// "[Ljava/lang/String;I" into its component descriptors.
func splitDescriptors(s string) ([]string, error) {
	var out []string
	for i := 0; i < len(s); {
		start := i
		// Consume array dimensions.
		for i < len(s) && s[i] == '[' {
			i++
		}
		if i >= len(s) {
			return nil, fmt.Errorf("dangling array marker at offset %d", start)
		}
		switch s[i] {
		case 'L':
			end := strings.IndexByte(s[i:], ';')
			if end < 0 {
				return nil, fmt.Errorf("unterminated class descriptor at offset %d", i)
			}
			i += end + 1
		case 'V', 'Z', 'B', 'S', 'C', 'I', 'J', 'F', 'D':
			i++
		default:
			return nil, fmt.Errorf("unknown descriptor byte %q at offset %d", s[i], i)
		}
		out = append(out, s[start:i])
	}
	return out, nil
}

// validateDescriptor checks that s is exactly one well-formed descriptor.
func validateDescriptor(s string) error {
	parts, err := splitDescriptors(s)
	if err != nil {
		return err
	}
	if len(parts) != 1 {
		return fmt.Errorf("expected one descriptor, found %d in %q", len(parts), s)
	}
	return nil
}
