package dex

import "testing"

// FuzzParseTypeSignature checks the smali signature parser is total and
// that parse→render→parse is stable.
func FuzzParseTypeSignature(f *testing.F) {
	f.Add("Lcom/unity3d/ads/android/cache/b;->doInBackground([Ljava/lang/String;)Ljava/lang/Object;")
	f.Add("La/B;->f()V")
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, sig string) {
		m, err := ParseTypeSignature(sig)
		if err != nil {
			return
		}
		again, err := ParseTypeSignature(m.TypeSignature())
		if err != nil {
			t.Fatalf("rendered signature does not re-parse: %v", err)
		}
		if again.TypeSignature() != m.TypeSignature() {
			t.Fatalf("signature not stable: %q vs %q", again.TypeSignature(), m.TypeSignature())
		}
	})
}
