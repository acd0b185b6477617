package apk_test

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"libspector/internal/apk"
	"libspector/internal/synth"
)

// generatedApps returns n apps of the seed-42 world at MethodScale 0.1,
// a few thousand to tens of thousands of methods each.
func generatedApps(t testing.TB, n int) []*synth.App {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Seed = 42
	cfg.NumApps = n
	cfg.MethodScale = 0.1
	w, err := synth.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	apps := make([]*synth.App, n)
	for i := range apps {
		if apps[i], err = w.GenerateApp(i); err != nil {
			t.Fatal(err)
		}
	}
	return apps
}

// Workers encode concurrently through the reused encoders; each must get
// exactly the bytes a serial encode of its own app gives.
func TestEncodeConcurrent(t *testing.T) {
	apps := generatedApps(t, 6)
	for i, app := range apps {
		data, err := app.APK.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, app.Encoded) {
			t.Fatalf("app %d: a second encode differs from the first", i)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 12; n++ {
				i := (w + n) % len(apps)
				data, err := apps[i].APK.Encode()
				if err != nil || !bytes.Equal(data, apps[i].Encoded) {
					t.Errorf("worker %d: Encode(app %d) = %d bytes, %v; want the serial %d bytes", w, i, len(data), err, len(apps[i].Encoded))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Once its encoder has warmed up on an app, Encode allocates the exact-size
// result and a few KiB of zip headers and buffers besides: no compressor,
// archive buffer, dex bytes or string pool.
func TestEncodeAllocs(t *testing.T) {
	const slack = 16 << 10
	for i, app := range generatedApps(t, 3) {
		if _, err := app.APK.Encode(); err != nil {
			t.Fatal(err)
		}
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < runs; r++ {
			if _, err := app.APK.Encode(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perEncode := (after.TotalAlloc - before.TotalAlloc) / runs
		if limit := uint64(len(app.Encoded) + slack); perEncode > limit {
			t.Errorf("app %d: Encode allocates %d bytes for a %d-byte apk, over %d", i, perEncode, len(app.Encoded), limit)
		}
	}
}

// BenchmarkCheck times the apk store's validation of one generated apk
// (apk.Check, dex.Check within it). Each iteration takes the next of 16
// apps of the seed-42 world at MethodScale 0.1; a multiple of 16
// iterations (-benchtime 64x) weighs every app alike.
//
//	go test -run '^$' -bench Check -benchmem -benchtime 64x ./internal/apk
func BenchmarkCheck(b *testing.B) {
	apps := generatedApps(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := apk.Check(apps[i%len(apps)].Encoded); err != nil {
			b.Fatal(err)
		}
	}
}
