package dispatch

import (
	"encoding/binary"
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"libspector/internal/attribution"
	"libspector/internal/emulator"
	"libspector/internal/synth"
)

// captureFleet returns a small world and a fleet config over it.
func captureFleet(t *testing.T, apps, workers int) (*synth.World, Config) {
	t.Helper()
	world, attributor := telemetryWorld(t, 45, apps)
	opts := emulator.DefaultOptions(45)
	opts.Monkey.Events = 120
	return world, Config{Workers: workers, Emulator: opts, BaseSeed: 45, Attributor: attributor}
}

// fleetRuns streams one fleet and returns its runs, in app order, as
// JSON.
func fleetRuns(t *testing.T, world *synth.World, cfg Config) []byte {
	runs := make([]*attribution.RunResult, world.NumApps())
	_, err := drainFleet(world, world.Resolver, cfg, SinkFunc(func(ev RunEvent) error {
		if ev.Kind == EventRun {
			runs[ev.AppIndex] = ev.Run
		}
		return nil
	}))
	if err != nil {
		t.Error(err)
	}
	b, err := json.Marshal(runs)
	if err != nil {
		t.Error(err)
	}
	return b
}

// A worker of the next fleet starts with the buffer the last fleet's
// worker released: it writes its captures over the poison left in it,
// and gives the same buffer back.
func TestCaptureBufferOutlivesFleet(t *testing.T) {
	DrainIdleCaptures()
	defer DrainIdleCaptures()
	world, cfg := captureFleet(t, 6, 1)
	fleetRuns(t, world, cfg)
	if len(idleCaptures) != 1 {
		t.Fatalf("a one-worker fleet left %d idle capture buffers, want 1", len(idleCaptures))
	}
	b := <-idleCaptures
	idleCaptures <- b
	PoisonIdleCaptures()
	// The same apps again: no capture outgrows the buffer.
	fleetRuns(t, world, cfg)
	if len(idleCaptures) != 1 {
		t.Fatalf("the second fleet left %d idle capture buffers, want 1", len(idleCaptures))
	}
	got := <-idleCaptures
	if unsafe.SliceData(got) != unsafe.SliceData(b) || cap(got) != cap(b) {
		t.Fatalf("the second fleet's worker released a %d-byte buffer of its own, not the %d-byte one it was left", cap(got), cap(b))
	}
	if magic := binary.LittleEndian.Uint32(got[:4]); magic != 0xa1b2c3d4 {
		t.Fatalf("the released buffer starts %#x, not a pcap header: the second fleet never captured into it", magic)
	}
}

// The idle list keeps at most one buffer per processor, and a buffer
// grown past maxIdleCaptureBytes is dropped on release.
func TestCaptureRetentionBound(t *testing.T) {
	DrainIdleCaptures()
	defer DrainIdleCaptures()
	releaseCapture(make([]byte, 0, maxIdleCaptureBytes+1))
	if len(idleCaptures) != 0 {
		t.Fatalf("a capture buffer past the %d-byte cap was kept", maxIdleCaptureBytes)
	}
	releaseCapture(make([]byte, 100, maxIdleCaptureBytes))
	if len(idleCaptures) != 1 {
		t.Fatalf("a capture buffer at the %d-byte cap was dropped", maxIdleCaptureBytes)
	}
	if b := takeCapture(); len(b) != 0 || cap(b) != maxIdleCaptureBytes {
		t.Fatalf("took a buffer of len %d cap %d, want the released one emptied", len(b), cap(b))
	}
	for range runtime.GOMAXPROCS(0) + 3 {
		releaseCapture(make([]byte, 0, 64<<10))
	}
	if len(idleCaptures) != runtime.GOMAXPROCS(0) {
		t.Fatalf("idle list holds %d capture buffers, want one per processor (%d)", len(idleCaptures), runtime.GOMAXPROCS(0))
	}
}

// Fleets running at once in one process, as in-process shards do, take
// and give back buffers through the one idle list; each round's runs
// equal the first round's, whichever buffers they captured into.
func TestConcurrentFleetsShareIdleCaptures(t *testing.T) {
	DrainIdleCaptures()
	defer DrainIdleCaptures()
	world, cfg := captureFleet(t, 12, 2)
	shards := []ShardRange{{Lo: 0, Hi: 6}, {Lo: 6, Hi: 12}}
	var first [2][]byte
	for round := range 3 {
		var got [2][]byte
		var wg sync.WaitGroup
		for k, shard := range shards {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := cfg
				c.Shard = shard
				got[k] = fleetRuns(t, world, c)
			}()
		}
		wg.Wait()
		if round == 0 {
			first = got
			continue
		}
		for k := range got {
			if string(got[k]) != string(first[k]) {
				t.Errorf("round %d: shard %d's runs differ from round 0's", round, k)
			}
		}
	}
	if len(idleCaptures) == 0 {
		t.Error("concurrent fleets left no idle capture buffer")
	}
}
