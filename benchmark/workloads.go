package main

import (
	"path/filepath"
	"runtime"
	"time"

	"libspector"
	"libspector/internal/faults"
	"libspector/internal/obs"
)

// workload is one campaign configuration the benchmark runs. A run of a
// workload executes several campaigns of `apps` apps each, every one a
// fresh libspector.Experiment over its own derived seed.
type workload struct {
	name string
	// why is the one-line rationale recorded in BENCHMARK.json.
	why string
	// apps is the corpus size of one campaign. The four fleet/replay
	// workloads share one size (and one monkey budget) so that, for a
	// given seed, they analyse the same corpus and must produce the same
	// figures.
	apps int
	// durable puts the journal, artifact store, result store and event
	// log of the campaign into a fresh temp dir — the cmd/libspector
	// facade configuration.
	durable bool
	// resume times a Resume: true campaign over the journal and artifacts
	// an untimed durable campaign of the same seed left behind.
	resume bool
	// staged says whether the per-layer staged pass can mirror the
	// workload; fleet_faulted's retry control flow lives inside dispatch.
	staged bool
	// reference marks the two workloads that get the fixed-versus-marginal
	// split (and, for the diskless one, the telemetry-overhead comparison).
	reference bool
	// sameCorpus marks the workloads whose figures must equal
	// fleet_compute's for the same seed.
	sameCorpus bool
	// shape applies the workload's corpus and fault knobs.
	shape func(*libspector.Config)
}

// fleetApps is the campaign size of the workloads that share a corpus.
const fleetApps = 128

var workloads = []workload{
	{
		name: "fleet_compute", apps: fleetApps, staged: true, sameCorpus: true, reference: true,
		why:   "reference mix, nothing on disk: generation, apk store round trip, emulator and attribution share the CPU; persistence layers do no work",
		shape: func(c *libspector.Config) { c.MonkeyEvents = 120 },
	},
	{
		name: "fleet_durable", apps: fleetApps, durable: true, staged: true, sameCorpus: true, reference: true,
		why:   "fleet_compute plus journal, artifact store, result store and event log: what an operator of a resumable campaign gets; the serial artifact sink dominates the margin",
		shape: func(c *libspector.Config) { c.MonkeyEvents = 120 },
	},
	{
		name: "replay_resume", apps: fleetApps, durable: true, resume: true, staged: true, sameCorpus: true,
		why:   "Resume over a finished journal: the persistence layers read instead of written (journal replay, artifact load, re-attribution); emulator, collector and apk store idle",
		shape: func(c *libspector.Config) { c.MonkeyEvents = 120 },
	},
	{
		name: "heavy_code", apps: 64, staged: true,
		why: "code-size axis: MethodScale 0.1 (3.3x default) makes dex generation, encode/decode and disassembly dominate; traffic layers barely register (bypass of heavy_traffic)",
		shape: func(c *libspector.Config) {
			c.MonkeyEvents = 120
			c.MethodScale = 0.1
		},
	},
	{
		name: "heavy_traffic", apps: 96, staged: true,
		why: "traffic axis: the paper's 1000 monkey events at VolumeScale 4 make emulator, pcap writer and attribution dominate; code layers shrink (bypass of heavy_code)",
		shape: func(c *libspector.Config) {
			c.MonkeyEvents = 1000
			c.VolumeScale = 4
		},
	},
	{
		name: "fleet_faulted", apps: fleetApps, durable: true, sameCorpus: true,
		why: "fleet_durable with 20% of apps faulted once: retry path, collector flush barrier, journal retry records; attempts are a pure function of the seed and no app may fail",
		shape: func(c *libspector.Config) {
			c.MonkeyEvents = 120
			c.FaultRate = 0.2
			c.FaultPoisonRate = 0
			// No StallRun: it needs a wall-clock RunTimeout.
			c.FaultClasses = []faults.Class{faults.EmulatorAbort, faults.CaptureTruncate, faults.DatagramDrop, faults.HookFault}
			c.MaxAttempts = 3
			c.RetryBackoff = time.Second // charged to the fleet's virtual clock
			c.ContinueOnError = true
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// workers is the closed-loop client count of every campaign: one per
// processor, at most two, and no load generator beside them.
func workers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// campaignSeed derives the seed of the k-th campaign of a run. Campaign 0
// uses the run's seed itself, so golden.json pins what a plain
// libspector.Config{Seed: seed} produces; later campaigns are scrambled
// (splitmix64) so that runs at neighbouring seeds share no corpus.
func campaignSeed(seed uint64, k int) uint64 {
	if k == 0 {
		return seed
	}
	z := seed + uint64(k)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// campaignFiles names what a durable campaign leaves in its directory.
type campaignFiles struct {
	dir string
}

func (f campaignFiles) journal() string   { return filepath.Join(f.dir, "campaign.wal") }
func (f campaignFiles) artifacts() string { return filepath.Join(f.dir, "artifacts") }
func (f campaignFiles) events() string    { return filepath.Join(f.dir, "events.jsonl") }
func (f campaignFiles) store(resumed bool) string {
	if resumed {
		return filepath.Join(f.dir, "resumed.store")
	}
	return filepath.Join(f.dir, "results.store")
}

// telemetryKind selects how much of internal/obs a campaign carries; only
// the obs-overhead diagnostic uses anything but the workload's default.
type telemetryKind int

const (
	telDefault telemetryKind = iota // virtual; plus bus and event log when durable
	telNone
	telVirtual
	telEventLog
)

// config builds the libspector.Config of one campaign: the only thing the
// program under test ever sees of the workload. dir is ignored by diskless
// workloads. The returned event log is non-nil when the campaign records
// one; the caller writes it to files.events() after Run when the campaign
// has a directory.
func (w workload) config(seed uint64, apps, nworkers int, files campaignFiles, tk telemetryKind) (libspector.Config, *obs.EventLog) {
	cfg := libspector.DefaultConfig()
	cfg.Seed = seed
	cfg.Apps = apps
	cfg.Workers = nworkers
	cfg.UseCollector = true
	cfg.UseStore = true
	w.shape(&cfg)
	if w.durable {
		cfg.Journal = files.journal()
		cfg.ArtifactDir = files.artifacts()
		cfg.ResultStore = files.store(false)
	}
	if tk == telDefault {
		tk = telVirtual
		if w.durable {
			tk = telEventLog
		}
	}
	var evlog *obs.EventLog
	if tk != telNone {
		tel := obs.NewVirtual(nil)
		if tk == telEventLog {
			tel.SetBus(obs.NewBus(tel.Metrics()))
			evlog = obs.NewEventLog()
			evlog.AttachTo(tel.Bus())
		}
		cfg.Telemetry = tel
	}
	return cfg, evlog
}
