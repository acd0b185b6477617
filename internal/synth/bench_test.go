package synth

import "testing"

// BenchmarkGenerateApp times generating one app of the seed-42 world,
// apk encoding included: the largest layer of a code-heavy campaign.
// Each iteration takes the next of 16 apps; a multiple of 16 iterations
// (-benchtime 64x) weighs every app alike.
//
//	go test -run '^$' -bench GenerateApp -benchmem -benchtime 64x ./internal/synth
func BenchmarkGenerateApp(b *testing.B) {
	for _, bc := range []struct {
		name  string
		scale float64
	}{
		{"default", DefaultConfig().MethodScale},
		{"scale0.1", 0.1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := smallConfig(42, 16)
			cfg.MethodScale = bc.scale
			w, err := NewWorld(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.GenerateApp(i % cfg.NumApps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
