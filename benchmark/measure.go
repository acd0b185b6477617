package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"libspector"
	"libspector/internal/analysis"
	"libspector/internal/dispatch"
)

// reading is one sample of the process-wide meters taken at a span or
// campaign boundary.
type reading struct {
	at     time.Time
	cpu    time.Duration // user+sys of the whole process (getrusage)
	allocs uint64        // /gc/heap/allocs:objects
	bytes  uint64        // /gc/heap/allocs:bytes
}

// heapSamples is reused across reads so that reading the meters allocates
// nothing itself. The harness reads meters from one goroutine at a time.
var heapSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

// readHeap samples only the allocation counters — the per-span read.
func readHeap() (objects, bytes uint64) {
	metrics.Read(heapSamples)
	return heapSamples[0].Value.Uint64(), heapSamples[1].Value.Uint64()
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// Cannot fail for RUSAGE_SELF with a valid pointer.
		panic(err)
	}
	return ru
}

func processCPU() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }

func readMeters() reading {
	objects, bytes := readHeap()
	return reading{at: time.Now(), cpu: processCPU(), allocs: objects, bytes: bytes}
}

// gcReading samples the runtime's GC accounting for the gc_cpu_frac and
// gc_cycles_per_app diagnostics.
type gcReading struct {
	gcCPU, totalCPU float64
	cycles          uint64
}

func readGC() gcReading {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return gcReading{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), cycles: s[2].Value.Uint64()}
}

// campaign is what one facade run (NewExperiment + Run) measured and
// produced.
type campaign struct {
	Apps       int
	Wall       time.Duration // wall of exp.Run, the timed region
	CPU        time.Duration
	Allocs     uint64
	AllocBytes uint64
	DiskBytes  int64
	GC         gcReading // deltas across Run
	Result     *dispatch.Result
	FiguresSHA string
	StoreSHA   string // empty when the campaign writes no result store
}

// failedApps counts the apps of a campaign that produced no outcome a user
// would accept: failed, quarantined, or never run.
func (c *campaign) failedApps() int {
	a := c.acct()
	return a.Failed + a.Quarantined + a.NotRun
}

func (c *campaign) acct() dispatch.Accounting { return c.Result.Accounting }

func (c *campaign) perApp(x float64) float64 { return x / float64(c.Apps) }

// runFacade times one campaign through the public facade. The timed
// region is exp.Run() alone; the figures hash, the event-log write and the
// disk walk come after it.
func runFacade(ctx context.Context, w workload, seed uint64, apps, nworkers int, files campaignFiles, resumed bool, tk telemetryKind) (*campaign, error) {
	cfg, evlog := w.config(seed, apps, nworkers, files, tk)
	if resumed {
		cfg.Resume = true
		cfg.ResultStore = files.store(true)
	}
	exp, err := libspector.NewExperiment(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: NewExperiment: %w", w.name, err)
	}
	c := &campaign{Apps: apps}

	gc0 := readGC()
	m0 := readMeters()
	err = exp.RunContext(ctx)
	m1 := readMeters()
	gc1 := readGC()
	if err != nil {
		return nil, fmt.Errorf("%s: Run: %w", w.name, err)
	}
	c.Wall = m1.at.Sub(m0.at)
	c.CPU = m1.cpu - m0.cpu
	c.Allocs = m1.allocs - m0.allocs
	c.AllocBytes = m1.bytes - m0.bytes
	c.GC = gcReading{gcCPU: gc1.gcCPU - gc0.gcCPU, totalCPU: gc1.totalCPU - gc0.totalCPU, cycles: gc1.cycles - gc0.cycles}
	c.Result = exp.Result()

	if evlog != nil && files.dir != "" {
		if err := evlog.WriteFile(files.events()); err != nil {
			return nil, fmt.Errorf("%s: writing event log: %w", w.name, err)
		}
	}
	if c.FiguresSHA, err = figuresSHA(exp.Dataset()); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if cfg.ResultStore != "" {
		if c.StoreSHA, err = fileSHA(cfg.ResultStore); err != nil {
			return nil, err
		}
	}
	if w.durable {
		if c.DiskBytes, err = dirBytes(files.dir); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// timeSetup times one construction of the workload's experiment — the
// set-up a campaign pays before Run: world, detector seeding, domain
// service. A construction takes under a millisecond and allocates enough
// to start a GC cycle every few calls, which makes the timings bimodal, so
// each one starts from a collected heap, as every timed campaign does.
func timeSetup(w workload, seed uint64, apps int) (time.Duration, error) {
	cfg, _ := w.config(seed, apps, workers(), campaignFiles{}, telDefault)
	runtime.GC()
	t0 := time.Now()
	if _, err := libspector.NewExperiment(cfg); err != nil {
		return 0, fmt.Errorf("%s: NewExperiment: %w", w.name, err)
	}
	return time.Since(t0), nil
}

// checkAccounting is the per-campaign output check every run makes: the
// ledger must account for the whole corpus, and a benchmark workload must
// lose no app.
func (c *campaign) checkAccounting() error {
	a := c.acct()
	if sum := a.Completed + a.SkippedARMOnly + a.Failed + a.Quarantined + a.NotRun; sum != a.TotalApps || a.TotalApps != c.Apps {
		return fmt.Errorf("accounting does not cover the corpus: %+v over %d apps", a, c.Apps)
	}
	if a.Completed == 0 {
		return fmt.Errorf("no app completed: %+v", a)
	}
	return nil
}

// figuresSHA is the hash a campaign's outputs are compared by: the sha256
// of the full evaluation summary.
func figuresSHA(ds *analysis.Dataset) (string, error) {
	h := sha256.New()
	if err := ds.Summarize(10).WriteJSON(h); err != nil {
		return "", fmt.Errorf("summarizing: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func fileSHA(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hashing %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
