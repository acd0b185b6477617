// Package libspector is a reproduction of "Libspector: Context-Aware
// Large-Scale Network Traffic Analysis of Android Applications" (DSN 2020):
// a dynamic-analysis system that attributes every network flow of an
// Android app to the library whose method chronologically first created
// the socket.
//
// Because the original system instruments the Android Framework, this
// library ships a faithful synthetic substrate (see DESIGN.md): a dex/apk
// model, an ART-like runtime with method tracing, a monkey UI exerciser,
// Xposed-style socket supervision, and a network stack emitting genuine
// pcap captures. The attribution pipeline, the LibRadar-style library
// categorization, the VirusTotal-style domain categorization, and every
// figure/table of the paper's evaluation run unchanged on top.
//
// The top-level entry point is an Experiment:
//
//	exp, err := libspector.NewExperiment(libspector.DefaultConfig())
//	if err != nil { ... }
//	if err := exp.Run(); err != nil { ... }
//	ag := exp.Aggregates()
//	fmt.Println(ag.Fig2CategoryTransfer().LegendShare)
package libspector

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"libspector/internal/analysis"
	"libspector/internal/attribution"
	"libspector/internal/corpus"
	"libspector/internal/dispatch"
	"libspector/internal/emulator"
	"libspector/internal/faults"
	"libspector/internal/journal"
	"libspector/internal/libradar"
	"libspector/internal/monkey"
	"libspector/internal/obs"
	"libspector/internal/resultstore"
	"libspector/internal/synth"
	"libspector/internal/vtclient"
)

// Config parameterizes a full experiment: world generation, fleet
// execution, and analysis.
type Config struct {
	// Seed drives every stochastic component; identical configs produce
	// identical results byte-for-byte.
	Seed uint64
	// Apps is the corpus size (the paper analyzed 25,000; the default
	// laptop-scale config uses 500).
	Apps int
	// Workers is the parallel worker count (0 = GOMAXPROCS).
	Workers int
	// MonkeyEvents and Throttle configure the UI exerciser (paper: 1,000
	// events at 500 ms).
	MonkeyEvents int
	Throttle     time.Duration
	// Deprecated: ignored. Every campaign routes its supervisor reports
	// through the UDP collector and its apks through the database server.
	UseCollector, UseStore bool
	// DomainScale, MethodScale, VolumeScale scale the synthetic world
	// (see synth.Config).
	DomainScale float64
	MethodScale float64
	VolumeScale float64
	// ArtifactDir, when set, persists every run's raw evidence (apk,
	// pcap, supervisor reports, method trace) for offline re-analysis.
	ArtifactDir string
	// Journal, when set, appends a checksummed write-ahead log of
	// campaign progress (internal/journal) to this path: one record per
	// run start and terminal outcome, so a killed campaign can be resumed
	// instead of restarted.
	Journal string
	// Resume replays the journal at Journal before running: completed
	// apps are folded back from their stored evidence (ArtifactDir must
	// point at the same store), in-flight and corrupt ones are requeued,
	// and the final figures match an uninterrupted same-seed run
	// byte-for-byte. The journal must belong to this campaign — a
	// different seed or flag-set is refused (see Fingerprint).
	Resume bool
	// ResultStore, when set, persists every completed run's per-flow
	// attribution records to a queryable columnar store
	// (internal/resultstore) at this path. The store is written once, on
	// clean completion, and is byte-identical whether the campaign ran as
	// a single process or as any N-shard split of the same seed.
	ResultStore string
	// CoordinatorWAL, when set, makes sharded campaigns (RunSharded,
	// RunShardProcesses) crash-safe: the coordinator journals shard
	// attempts, takeover budget, and sealed outcomes to this path, so a
	// killed coordinator restarted with Resume picks the campaign up —
	// sealed shards are verified and reused, in-flight shards resume from
	// their own journals, and the takeover budget is not reset. Sealed
	// outcomes live next to it at CoordinatorWAL + ".outcomes".
	CoordinatorWAL string
	// ChaosKillAfterRuns, when > 0, SIGKILLs the process after that many
	// apps reach a terminal outcome — the process-level chaos hook
	// RunShardProcesses' chaos schedule passes to shard children.
	// The kill is a real SIGKILL: no flushes, no deferred cleanup, only
	// what the journal already fsynced survives.
	ChaosKillAfterRuns int
	// ContinueOnError keeps the fleet running past individual app
	// failures instead of failing fast on the first one.
	ContinueOnError bool
	// RunTimeout bounds each run attempt's wall-clock duration (0 = no
	// per-run deadline).
	RunTimeout time.Duration
	// MaxAttempts is the per-app attempt budget; values > 1 retry failed
	// runs with exponential backoff and, with ContinueOnError, quarantine
	// apps that exhaust the budget.
	MaxAttempts int
	// RetryBackoff is the base delay between attempts, doubled per retry.
	// Backoff is charged to the degradation ledger, never slept, so
	// same-seed experiments stay deterministic and fast.
	RetryBackoff time.Duration
	// FaultRate, when positive, enables the internal/faults injector: that
	// fraction of apps suffer a deterministic, seed-derived fault on their
	// first run attempt. [0, 1].
	FaultRate float64
	// FaultPoisonRate is the fraction of faulted apps whose fault repeats
	// on every attempt (retry-proof), exercising the quarantine path. [0, 1].
	FaultPoisonRate float64
	// FaultClasses restricts injection to the listed classes; empty means
	// all classes.
	FaultClasses []faults.Class
	// Telemetry, when set, receives the experiment's metrics and per-run
	// span traces (internal/obs): fleet outcome counters, collector
	// datagram totals, attribution joins, and one trace per app covering
	// dispatch → boot → monkey → supervision → capture → attribution →
	// analysis fold. Construct with obs.New() for a live wall-clock view
	// (servable via obs.ServeOps) or obs.NewVirtual(nil) for
	// byte-deterministic snapshots under a fixed seed.
	Telemetry *obs.Telemetry
}

// Fingerprint hashes every config field that shapes results — seed,
// corpus size, monkey schedule, world scales — into a short hex digest
// recorded in the journal header. Operational knobs that cannot change
// outcomes under the deterministic substrate (worker count, retry policy,
// fault injection, telemetry) are deliberately excluded: a crashed
// faulted campaign is typically resumed with the fault injector off, and
// that resume must be accepted. It still hashes "collector=true
// store=true", from when both were switches: journals of campaigns that
// ran with both on resume, and those that ran without them are refused.
func (c Config) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "seed=%d apps=%d events=%d throttle=%d collector=true store=true domain=%g method=%g volume=%g",
		c.Seed, c.Apps, c.MonkeyEvents, c.Throttle, c.DomainScale, c.MethodScale, c.VolumeScale)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// DefaultConfig is the laptop-scale configuration preserving the paper's
// distributions.
func DefaultConfig() Config {
	sc := synth.DefaultConfig()
	mc := monkey.DefaultConfig()
	return Config{
		Seed:         sc.Seed,
		Apps:         sc.NumApps,
		MonkeyEvents: mc.Events,
		Throttle:     mc.Throttle,
		DomainScale:  sc.DomainScale,
		MethodScale:  sc.MethodScale,
		VolumeScale:  sc.VolumeScale,
	}
}

// Experiment owns one end-to-end measurement: the synthetic world, the
// LibRadar detector, the VirusTotal-style domain service, the fleet
// results, and the analysis aggregates.
type Experiment struct {
	cfg  Config
	apps int // effective corpus size after defaulting

	world      *synth.World
	detector   *libradar.Detector
	domains    *vtclient.Service
	attributor *attribution.Attributor

	result     *dispatch.Result
	aggregates *analysis.Aggregates
}

// NewExperiment generates the world and wires the pipeline components.
func NewExperiment(cfg Config) (*Experiment, error) {
	sc := synth.DefaultConfig()
	sc.Seed = cfg.Seed
	if cfg.Apps > 0 {
		sc.NumApps = cfg.Apps
	}
	if cfg.DomainScale > 0 {
		sc.DomainScale = cfg.DomainScale
	}
	if cfg.MethodScale > 0 {
		sc.MethodScale = cfg.MethodScale
	}
	if cfg.VolumeScale > 0 {
		sc.VolumeScale = cfg.VolumeScale
	}
	world, err := synth.NewWorld(sc)
	if err != nil {
		return nil, fmt.Errorf("libspector: generating world: %w", err)
	}
	detector := libradar.SeededDetector()
	for prefix, cat := range world.KnownLibraryDB() {
		if err := detector.AddKnownLibrary(prefix, cat); err != nil {
			return nil, fmt.Errorf("libspector: seeding detector: %w", err)
		}
	}
	domains, err := vtclient.NewService(vtclient.NewOracle(cfg.Seed, world.DomainTruth()))
	if err != nil {
		return nil, fmt.Errorf("libspector: building domain service: %w", err)
	}
	attributor := attribution.NewAttributor(domains)
	attributor.SetTelemetry(cfg.Telemetry)
	return &Experiment{
		cfg:        cfg,
		apps:       sc.NumApps,
		world:      world,
		detector:   detector,
		domains:    domains,
		attributor: attributor,
	}, nil
}

// World exposes the synthetic universe (domains, libraries, app corpus).
func (e *Experiment) World() *synth.World { return e.world }

// Detector exposes the LibRadar-style library detector.
func (e *Experiment) Detector() *libradar.Detector { return e.detector }

// Domains exposes the VirusTotal-style domain categorization service.
func (e *Experiment) Domains() *vtclient.Service { return e.domains }

// TableICounts is Table I's count column: every domain of the world
// categorized, as the paper categorizes every domain seen in DNS requests.
func (e *Experiment) TableICounts() map[corpus.DomainCategory]int {
	for _, d := range e.world.Domains {
		e.domains.Categorize(d.Name)
	}
	return e.domains.Counts()
}

// Attributor exposes the traffic attributor.
func (e *Experiment) Attributor() *attribution.Attributor { return e.attributor }

// emulatorOptions derives the per-run emulator template from the config.
func (e *Experiment) emulatorOptions() emulator.Options {
	opts := emulator.DefaultOptions(e.cfg.Seed)
	if e.cfg.MonkeyEvents > 0 {
		opts.Monkey.Events = e.cfg.MonkeyEvents
	}
	if e.cfg.Throttle > 0 {
		opts.Monkey.Throttle = e.cfg.Throttle
	}
	return opts
}

// buildFleetConfig assembles the dispatch configuration for one fleet
// execution from its spec. The fault injector is built fresh per fleet: it
// is a deterministic function of the seed, so every shard reproduces
// exactly the single-process behavior for its indices.
func (e *Experiment) buildFleetConfig(spec fleetSpec) (dispatch.Config, error) {
	cfg := dispatch.Config{
		Workers:         spec.workers,
		Emulator:        e.emulatorOptions(),
		BaseSeed:        e.cfg.Seed,
		Detector:        e.detector,
		Attributor:      spec.attr,
		ContinueOnError: e.cfg.ContinueOnError,
		RunTimeout:      e.cfg.RunTimeout,
		MaxAttempts:     e.cfg.MaxAttempts,
		RetryBackoff:    e.cfg.RetryBackoff,
		Telemetry:       spec.tel,
		Shard:           spec.rng,
	}
	if e.cfg.FaultRate > 0 {
		inj, err := faults.New(faults.Config{
			Seed:       e.cfg.Seed,
			Rate:       e.cfg.FaultRate,
			PoisonRate: e.cfg.FaultPoisonRate,
			Classes:    e.cfg.FaultClasses,
		})
		if err != nil {
			return cfg, fmt.Errorf("libspector: %w", err)
		}
		cfg.Faults = inj
	}
	return cfg, nil
}

// attachArtifacts wires an artifact store at dir into the fleet config;
// the fleet's workers save every completed run's evidence there.
func attachArtifacts(cfg *dispatch.Config, dir string) error {
	artifacts, err := dispatch.NewArtifactStore(dir)
	if err != nil {
		return err
	}
	cfg.Artifacts = artifacts
	if cfg.Faults != nil {
		// Lets the artifact-flip crash class damage stored evidence.
		artifacts.SetFaults(cfg.Faults)
	}
	return nil
}

// attachJournal opens (resume) or creates the journal at path and wires
// it into the fleet config, verifying campaign identity on resume.
func attachJournal(cfg *dispatch.Config, path string, hdr journal.Header, resume bool) error {
	if resume {
		// Resume matches the header before it truncates a torn tail: a
		// journal recorded under another seed or config is refused
		// untouched.
		w, replay, err := journal.Resume(path, hdr, journal.Options{})
		if err != nil {
			return fmt.Errorf("libspector: resuming journal: %w", err)
		}
		cfg.Journal, cfg.Resume = w, replay
		return nil
	}
	w, err := journal.Create(path, hdr, journal.Options{})
	if err != nil {
		return fmt.Errorf("libspector: creating journal: %w", err)
	}
	cfg.Journal = w
	return nil
}

// campaignHeader is the journal identity of this campaign, or of one of
// its shards when the range is non-zero.
func (e *Experiment) campaignHeader(shard dispatch.ShardRange) journal.Header {
	return journal.Header{
		Seed:        e.cfg.Seed,
		Fingerprint: e.cfg.Fingerprint(),
		Apps:        e.apps,
		ShardLo:     shard.Lo,
		ShardHi:     shard.Hi,
	}
}

// fleetSpec is everything that distinguishes one fleet execution of this
// experiment from another. A whole-corpus run is the shard whose range is
// the corpus: index -1, the zero range, the experiment's own telemetry
// and attributor, and the un-suffixed durability paths. A shard carries a
// per-shard worker slice, telemetry registry (so shard snapshots merge
// back to the single-process one), attributor, and paths.
type fleetSpec struct {
	// index is the shard index stamped on analysis.fold ranking events so
	// a dashboard can merge per-shard views (-1 = whole corpus).
	index int
	rng   dispatch.ShardRange
	// workers is the resolved worker count (> 0) the fleet runs with.
	workers int
	tel     *obs.Telemetry
	attr    *attribution.Attributor
	// artifactDir and journal are this fleet's own store and log ("" =
	// off); resume replays the journal instead of truncating it.
	artifactDir string
	journal     string
	resume      bool
}

// runFleet is the one campaign engine: every fleet execution — whole
// corpus or one shard of it, fresh or resumed — attaches its artifact
// store and journal, streams the range through dispatch.Stream, drains
// the events into the sinks, and closes the journal. fold is the
// fleet's analysis.Accumulator — finished by a whole-corpus run, sealed
// by a shard for its coordinator — and the first
// sink: every completed run folds into it exactly once, on the draining
// goroutine, under an analysis.fold span, and a fold error surfaces as
// a sink error. records is the flattened attribution record set when the
// campaign writes a result store.
//
// A nil Result means the fleet never started. Otherwise everything
// returned is valid alongside a non-nil error: after a cancellation or
// failure it holds whatever completed, so callers can report partial
// aggregates.
func runFleet(ctx context.Context, e *Experiment, spec fleetSpec, fold dispatch.Sink, sinks ...dispatch.Sink) (res *dispatch.Result, records *dispatch.RecordSink, err error) {
	cfg, err := e.buildFleetConfig(spec)
	if err != nil {
		return nil, nil, err
	}
	tel := spec.tel
	// The worker's dispatch root span has ended before the event is
	// emitted, so the analysis-fold span lands last on the app's trace.
	// The ranking tracker after it is inert (one atomic load per run)
	// when no bus is attached.
	sinks = append([]dispatch.Sink{dispatch.SinkFunc(func(ev dispatch.RunEvent) error {
		if ev.Kind != dispatch.EventRun || ev.Run == nil || tel == nil {
			return fold.Consume(ev)
		}
		span := tel.Trace(dispatch.TraceID(ev.AppIndex)).Span(obs.SpanAnalysisFold, tel.Now())
		err := fold.Consume(ev)
		span.AttrInt("flows", int64(len(ev.Run.Flows))).End(tel.Now())
		tel.Counter(obs.MAnalysisFolds).Inc()
		tel.Counter(obs.MAnalysisFlowsFolded).Add(int64(len(ev.Run.Flows)))
		return err
	}), newFoldTracker(tel, spec.index)}, sinks...)
	if spec.artifactDir != "" {
		if err := attachArtifacts(&cfg, spec.artifactDir); err != nil {
			return nil, nil, fmt.Errorf("libspector: %w", err)
		}
	}
	if e.cfg.ResultStore != "" {
		records = dispatch.NewRecordSink()
		sinks = append(sinks, records)
	}
	if n := e.cfg.ChaosKillAfterRuns; n > 0 {
		// The chaos kill hook: die — really die, SIGKILL — after n terminal
		// outcomes. Unsynced journal frames are lost exactly as a real
		// crash loses them; the takeover attempt resumes from whatever the
		// journal fsynced.
		terminal := 0
		sinks = append(sinks, dispatch.SinkFunc(func(ev dispatch.RunEvent) error {
			if ev.Kind != dispatch.EventSummary {
				if terminal++; terminal >= n {
					faults.KillSelf()
				}
			}
			return nil
		}))
	}

	if spec.journal != "" {
		if err := attachJournal(&cfg, spec.journal, e.campaignHeader(spec.rng), spec.resume); err != nil {
			return nil, nil, err
		}
	}
	events, err := dispatch.Stream(ctx, e.world, e.world.Resolver, cfg)
	if err != nil {
		if cfg.Journal != nil {
			// A close failure here must not eat the stream error, but an
			// unsynced WAL is worth surfacing alongside it.
			if cerr := cfg.Journal.Close(); cerr != nil {
				err = fmt.Errorf("%w (journal close: %v)", err, cerr)
			}
		}
		return nil, nil, fmt.Errorf("libspector: fleet run: %w", err)
	}
	res, err = dispatch.Drain(events, sinks...)
	if cfg.Journal != nil {
		// Close syncs; a journal that cannot reach disk fails the run so
		// the operator never trusts an unsynced WAL.
		if cerr := cfg.Journal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return res, records, err
}

// Run executes the fleet over the whole corpus and folds the analysis
// aggregates. It is not safe to call concurrently with itself.
func (e *Experiment) Run() error {
	return e.RunContext(context.Background())
}

// RunContext executes the fleet as a streaming pipeline under the given
// context, folding results through one analysis.Accumulator as they are
// drained and forwarding every stream event to the optional sinks (live
// progress, custom persistence, per-flow tables of one's own). No run
// outlives its fold: the experiment retains aggregates, never RunResults.
// Cancelling ctx stops the fleet within one in-flight app per worker;
// every run that completed, in-flight ones included, still reaches the
// fold and the sinks, so Result and Aggregates hold the same partial view
// alongside the returned error.
func (e *Experiment) RunContext(ctx context.Context, sinks ...dispatch.Sink) error {
	acc, err := analysis.NewAccumulator(e.domains)
	if err != nil {
		return fmt.Errorf("libspector: %w", err)
	}
	// The whole-corpus run is the shard whose range is the corpus.
	res, records, runErr := runFleet(ctx, e, fleetSpec{
		index:       -1,
		workers:     e.resolvedWorkers(),
		tel:         e.cfg.Telemetry,
		attr:        e.attributor,
		artifactDir: e.cfg.ArtifactDir,
		journal:     e.cfg.Journal,
		resume:      e.cfg.Resume,
	}, acc, sinks...)
	if res == nil {
		return runErr
	}
	e.result = res

	// Even after a cancellation or failure, resolve what did complete so
	// callers can report partial aggregates.
	e.detector.Finalize(2)
	ag, err := acc.Finish(e.detector)
	if err != nil {
		return fmt.Errorf("libspector: finishing aggregates: %w", err)
	}
	e.aggregates = ag
	if runErr != nil {
		return fmt.Errorf("libspector: fleet run: %w", runErr)
	}
	if records != nil {
		// Only a clean run flushes the store: a partial store would be
		// mistaken for the campaign's full record set by offline queries.
		seg, err := records.Seal()
		if err == nil {
			_, err = resultstore.WriteSegments(e.cfg.ResultStore, [][]byte{seg})
		}
		if err != nil {
			return fmt.Errorf("libspector: writing result store: %w", err)
		}
	}
	// Terminal event only on a clean finish, after durability: a consumer
	// seeing campaign.done may trust the result store and figures.
	publishCampaignDone(e.cfg.Telemetry, res.Accounting)
	return nil
}

// Result returns the raw fleet result (nil before Run).
func (e *Experiment) Result() *dispatch.Result { return e.result }

// Dataset returns the aggregates under the name the nested benchmark
// module still uses.
//
// Deprecated: use Aggregates. It goes with benchmark/staged.go (ROADMAP
// item 2(a)).
func (e *Experiment) Dataset() *analysis.Dataset { return e.aggregates }

// Aggregates returns the incrementally-folded analysis aggregates (nil
// before Run). After a cancellation they cover the completed prefix of
// the fleet.
func (e *Experiment) Aggregates() *analysis.Aggregates { return e.aggregates }

// RunSingleApp exercises one app of the corpus as a one-app, one-worker
// fleet and returns its attribution result without touching the
// experiment's aggregate state — the quickstart path for inspecting a
// single app. ARM-only apps (excluded by the §III-A filter) yield an
// error.
func (e *Experiment) RunSingleApp(index int) (*attribution.RunResult, error) {
	var run *attribution.RunResult
	events, err := dispatch.Stream(context.Background(), e.world, e.world.Resolver, dispatch.Config{
		Workers:    1,
		Emulator:   e.emulatorOptions(),
		BaseSeed:   e.cfg.Seed,
		Attributor: e.attributor,
		Telemetry:  e.cfg.Telemetry,
		Shard:      dispatch.ShardRange{Lo: index, Hi: index + 1},
	})
	if err == nil {
		_, err = dispatch.Drain(events, dispatch.SinkFunc(func(ev dispatch.RunEvent) error {
			if ev.Kind == dispatch.EventRun {
				run = ev.Run
			}
			return nil
		}))
	}
	if err == nil && run == nil {
		err = fmt.Errorf("dispatch: app %d ships only ARM native libraries (excluded by the ABI filter)", index)
	}
	if err != nil {
		return nil, fmt.Errorf("libspector: running app %d: %w", index, err)
	}
	return run, nil
}
