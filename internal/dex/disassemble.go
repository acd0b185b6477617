package dex

import (
	"fmt"
	"slices"
)

// Disassembly is the output of disassembling a dex container: the complete
// method-signature set of the file, the role dexlib2 plays in the paper
// (§III-B: "we use the dexlib2 library to extract all the method signatures
// contained in a particular apk"). It is a view over the File and copies
// nothing: membership is the File's own signature index, and the sorted
// list is built only when Signatures is called, since attribution reads
// just Contains and MethodCount.
type Disassembly struct {
	// MethodCount is the total number of method definitions.
	MethodCount int

	file *File
}

// Disassemble decodes the SDEX container and extracts its full
// method-signature set.
func Disassemble(container []byte) (*Disassembly, error) {
	f, err := Decode(container)
	if err != nil {
		return nil, fmt.Errorf("dex: disassemble: %w", err)
	}
	return DisassembleFile(f), nil
}

// DisassembleFile extracts the signature set from an in-memory dex file.
func DisassembleFile(f *File) *Disassembly {
	return &Disassembly{MethodCount: f.MethodCount(), file: f}
}

// Signatures returns the sorted list of all smali type signatures, a
// fresh copy on every call.
func (d *Disassembly) Signatures() []string {
	sigs := slices.Clone(d.file.sigs)
	slices.Sort(sigs)
	return sigs
}

// Contains reports whether the signature set includes sig.
func (d *Disassembly) Contains(sig string) bool {
	_, ok := d.file.bySig[sig]
	return ok
}

// SignatureTranslator resolves a stack frame's dotted qualified method name
// to full type signatures, the translation the custom Xposed module
// performs after parsing the apk's dex files (§II-B2a). Overloaded methods
// yield several candidates; the supervisor disambiguates with the runtime's
// parameter arity.
type SignatureTranslator struct {
	file *File
}

// NewSignatureTranslator builds a translator over a parsed dex file.
func NewSignatureTranslator(f *File) *SignatureTranslator {
	return &SignatureTranslator{file: f}
}

// Translate maps a dotted qualified name plus parameter arity to the
// matching full type signature. If arity is negative, the first variant in
// definition order is returned. Unknown frames (e.g. framework methods not
// present in the app's dex) are reported via ok=false; the supervisor then
// falls back to the qualified name itself.
func (t *SignatureTranslator) Translate(qualified string, arity int) (string, bool) {
	f := t.file
	class, name, first := f.firstOverload(qualified)
	if first < 0 {
		return "", false
	}
	if arity >= 0 {
		for i := first; i >= 0; i = f.nextOverload(f.next[i], class, name) {
			if len(f.methods[i].Params) == arity {
				return f.sigs[i], true
			}
		}
	}
	// Negative arity or no variant of that arity: the first variant, still
	// a signature of the right qualified name.
	return f.sigs[first], true
}
