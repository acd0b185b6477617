package synth

import (
	"runtime"
	"testing"
)

// BenchmarkGenerateApp times generating one app of the seed-42 world,
// apk encoding included: the largest layer of a code-heavy campaign.
// Each iteration takes the next of 16 apps; a multiple of 16 iterations
// (-benchtime 64x) weighs every app alike. The recycled case releases
// each app, as a campaign's worker does, so the next one builds into its
// dex file; the others never release, so every app builds a fresh one.
// B/method is the bytes allocated per generated method.
//
//	go test -run '^$' -bench GenerateApp -benchmem -benchtime 64x ./internal/synth
func BenchmarkGenerateApp(b *testing.B) {
	for _, bc := range []struct {
		name    string
		scale   float64
		release bool
	}{
		{"default", DefaultConfig().MethodScale, false},
		{"scale0.1", 0.1, false},
		{"recycled", 0.1, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := smallConfig(42, 16)
			cfg.MethodScale = bc.scale
			w, err := NewWorld(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			methods := 0
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				app, err := w.GenerateApp(i % cfg.NumApps)
				if err != nil {
					b.Fatal(err)
				}
				methods += app.Program.Dex.MethodCount()
				if bc.release {
					app.Release()
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(methods), "B/method")
		})
	}
}
