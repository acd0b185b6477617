package libspector_test

// The determinism harness. The reproduction contract is that a same-seed
// campaign produces the same figures, result store, event log, ledger and
// metrics, byte for byte, whatever its shard count, fault mix, kill or
// resume, and the same trace, byte for byte whatever its shard count and
// by the replay rule after a kill or resume. TestDeterminism holds that
// one invariant with one mechanism: a draw describes a whole campaign
// (corpus, worker budget, topology, run faults, durability, and one
// interruption followed by a resume), its digest must equal the digest
// of the same draw run uninterrupted in one process, and a failing draw
// shrinks to the smallest draw that still fails, printed as a Go literal
// for the pinned table.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"libspector"
	"libspector/internal/dispatch"
	"libspector/internal/faults"
	"libspector/internal/journal"
	"libspector/internal/obs"
	"libspector/internal/resultstore"
)

// topology is how a drawn campaign executes.
type topology int

const (
	topoSingle  topology = iota // Experiment.RunContext in this process
	topoSharded                 // Experiment.RunSharded, shards in this process
	topoFiles                   // RunShardChild per shard in this process, outcome files, MergeShardOutcomes
	topoProcess                 // RunShardProcesses over this test binary, re-executed
)

func (t topology) String() string {
	return [...]string{"topoSingle", "topoSharded", "topoFiles", "topoProcess"}[t]
}

// stop is the one interruption a draw suffers; a resume follows it.
type stop int

const (
	stopNone   stop = iota
	stopCut         // single: the finished journal cut to its first At% of records
	stopCrash       // single or sharded: journal-crash on At% of apps
	stopTear        // single or sharded: journal-tear on At% of apps
	stopCancel      // single: the context cancelled after At terminal outcomes
	stopKill        // processes: the chaos schedule kills At shard children and the coordinator
)

func (s stop) String() string {
	return [...]string{"stopNone", "stopCut", "stopCrash", "stopTear", "stopCancel", "stopKill"}[s]
}

// draw is one campaign of the harness's space, whose limits are: Workers
// >= Shards (gauge identity needs a worker per shard); no stall-run
// faults (they test the wall-clock RunTimeout, not determinism); crash
// stops only on draws without run faults, because the injector picks a
// faulted app's class from one list, so a crash class would move them.
type draw struct {
	Seed                  uint64
	Apps, Workers, Shards int
	Topology              topology
	// Faults lists run-fault classes as -fault-classes does; "" is none.
	Faults       string
	Rate, Poison float64
	MaxAttempts  int
	// Durable adds a journal, an artifact store and a result store.
	Durable bool
	Stop    stop
	At      int
	// Tamper corrupts a sealed shard outcome after a killed campaign
	// converged, and resumes once more.
	Tamper bool
}

// GoString renders the draw as a literal for the pinned table.
func (d draw) GoString() string {
	return fmt.Sprintf("draw{Seed: %d, Apps: %d, Workers: %d, Shards: %d, Topology: %v, Faults: %q, Rate: %g, Poison: %g, "+
		"MaxAttempts: %d, Durable: %t, Stop: %v, At: %d, Tamper: %t}", d.Seed, d.Apps, d.Workers, d.Shards, d.Topology,
		d.Faults, d.Rate, d.Poison, d.MaxAttempts, d.Durable, d.Stop, d.At, d.Tamper)
}

func (d draw) runFaulted() bool { return d.Faults != "" && d.Rate > 0 }

// transientOnly reports whether every injected fault must be retried
// away, so that the campaign equals the fault-free one on figures, store
// and runs.
func (d draw) transientOnly() bool { return d.runFaulted() && d.Poison == 0 && d.MaxAttempts > 1 }

// stops lists the interruptions the draw's topology, durability and
// faults admit.
func (d draw) stops() []stop {
	crashes := []stop{stopCrash, stopTear}
	if d.runFaulted() {
		crashes = nil
	}
	switch {
	case d.Durable && d.Topology == topoSingle:
		return append([]stop{stopNone, stopCut, stopCancel}, crashes...)
	case d.Durable && d.Topology == topoSharded:
		return append([]stop{stopNone}, crashes...)
	case d.Durable && d.Topology == topoProcess:
		return []stop{stopNone, stopKill}
	}
	return []stop{stopNone}
}

// valid reports whether the draw lies inside the harness's space.
func (d draw) valid() bool {
	return d.Apps >= 2 && d.Shards >= 1 && d.Shards <= min(d.Workers, d.Apps) && d.MaxAttempts >= 1 &&
		(d.Topology != topoSingle || d.Shards == 1) && (d.Topology != topoProcess || d.Durable) &&
		slices.Contains(d.stops(), d.Stop) && (d.Stop == stopNone) == (d.At == 0) && (!d.Tamper || d.Stop == stopKill)
}

// randomDraw draws a campaign from the harness's space.
func randomDraw(r *rand.Rand, processes bool) draw {
	d := draw{Seed: r.Uint64N(1 << 20), Apps: 6 + r.IntN(30), Workers: 1 + r.IntN(8), Shards: 1, MaxAttempts: 1 + r.IntN(3)}
	d.Topology = topology(r.IntN(3))
	if processes {
		d.Topology = topology(r.IntN(4))
	}
	if d.Topology != topoSingle {
		d.Shards = 1 + r.IntN(d.Workers)
	}
	if r.IntN(2) == 0 {
		classes := []string{"emulator-abort", "capture-truncate", "datagram-drop", "hook-fault"}
		r.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
		d.Faults = strings.Join(classes[:1+r.IntN(len(classes))], ",")
		d.Rate = []float64{0.1, 0.2, 0.5, 1}[r.IntN(4)]
		d.Poison = []float64{0, 0.25, 0.5}[r.IntN(3)]
	}
	d.Durable = d.Topology == topoProcess || r.IntN(2) == 0
	stops := d.stops()
	switch d.Stop = stops[r.IntN(len(stops))]; d.Stop {
	case stopCut:
		d.At = 1 + r.IntN(100)
	case stopCrash, stopTear:
		d.At = 10 * (1 + r.IntN(10))
	case stopCancel:
		d.At = 1 + r.IntN(d.Apps-1)
	case stopKill:
		d.At, d.Tamper = 1+r.IntN(d.Shards), r.IntN(2) == 0
	}
	return d
}

// config builds the draw's campaign configuration with its durable state
// under dir; crash arms the draw's crash stop.
func (d draw) config(dir string, crash bool) libspector.Config {
	cfg := libspector.DefaultConfig()
	cfg.Seed, cfg.Apps, cfg.Workers, cfg.MonkeyEvents = d.Seed, d.Apps, d.Workers, 60
	cfg.ContinueOnError, cfg.MaxAttempts, cfg.RetryBackoff = true, d.MaxAttempts, 250*time.Millisecond
	if d.runFaulted() {
		cfg.FaultRate, cfg.FaultPoisonRate = d.Rate, d.Poison
		cfg.FaultClasses = try1(faults.ParseClasses(d.Faults))
	}
	if class, ok := crashClasses[d.Stop]; crash && ok {
		cfg.FaultRate, cfg.FaultClasses = float64(d.At)/100, []faults.Class{class}
	}
	if d.Durable {
		cfg.Journal = filepath.Join(dir, "campaign.journal")
		cfg.ArtifactDir = filepath.Join(dir, "artifacts")
		cfg.ResultStore = filepath.Join(dir, "store.bin")
	}
	return cfg
}

// crashClasses are the fault classes the crash stops inject.
var crashClasses = map[stop]faults.Class{stopCrash: faults.JournalCrash, stopTear: faults.JournalTear}

// failure carries a trial's error out of the helpers below, which abort
// the trial with try rather than return it; catch turns it back into the
// trial's error.
type failure struct{ error }

func try(err error) {
	if err != nil {
		panic(failure{err})
	}
}

func try1[T any](v T, err error) T {
	try(err)
	return v
}

func fail(format string, args ...any) { try(fmt.Errorf(format, args...)) }

func catch(err *error) {
	if r := recover(); r != nil {
		f, ok := r.(failure)
		if !ok {
			panic(r)
		}
		*err = f.error
	}
}

// observe attaches virtual telemetry with a bus and a deterministic
// event log to cfg.
func observe(cfg *libspector.Config) *obs.EventLog {
	cfg.Telemetry = obs.NewVirtual(nil)
	cfg.Telemetry.SetBus(obs.NewBus(cfg.Telemetry.Metrics()))
	evlog := obs.NewEventLog()
	evlog.AttachTo(cfg.Telemetry.Bus())
	return evlog
}

// digest is a campaign's comparable identity, one serialized part per
// name: the Summarize(25) figures, the ledger, the metrics snapshot
// without the two resume series, the failure and quarantine rosters, the
// result-store bytes, the event-log JSONL, the trace JSONL, and — where
// a RunContext sink saw them — the sha256 of every completed run in app
// order.
type digest map[string][]byte

// digestParts are compared byte for byte on every draw; the trace part
// is too on a draw without a stop, and after a stop must keep the replay
// rule (checkTrace).
var digestParts = []string{"figures", "ledger", "metrics", "rosters", "store", "events", "runs"}

// roster is the comparable projection of a failure or quarantine.
type roster struct {
	App, Attempts int
	Err           string
}

type rosters struct{ Failures, Quarantined []roster }

// newDigest reads the campaign's digest off its result, its store and
// the event log and tracer of its telemetry.
func newDigest(res *libspector.CampaignResult, storePath string, tel *obs.Telemetry, evlog *obs.EventLog) digest {
	var figures bytes.Buffer
	try(res.Aggregates.Summarize(25).WriteJSON(&figures))
	delete(res.Snapshot.Counters, obs.MResumeReplayed)
	delete(res.Snapshot.Counters, obs.MResumeRequeued)
	var ro rosters
	for _, f := range res.Failures {
		ro.Failures = append(ro.Failures, roster{f.AppIndex, f.Attempts, f.Err.Error()})
	}
	for _, q := range res.Quarantined {
		ro.Quarantined = append(ro.Quarantined, roster{q.AppIndex, q.Attempts, q.LastErr.Error()})
	}
	var events, trace bytes.Buffer
	try(evlog.WriteJSONL(&events))
	try(tel.Tracer().WriteJSONL(&trace))
	d := digest{"figures": figures.Bytes(), "events": events.Bytes(), "trace": trace.Bytes()}
	for name, v := range map[string]any{"ledger": res.Accounting, "metrics": res.Snapshot, "rosters": ro} {
		d[name] = try1(json.MarshalIndent(v, "", " "))
	}
	if storePath != "" {
		d["store"] = try1(os.ReadFile(storePath))
	}
	return d
}

// diff names the given parts that differ from want's, each with the
// bytes where they part. Runs count only when both campaigns saw them.
func (d digest) diff(want digest, names ...string) string {
	var out []string
	for _, name := range names {
		got, gok := d[name]
		exp, wok := want[name]
		if name == "runs" && !(gok && wok) || bytes.Equal(got, exp) {
			continue
		}
		i := 0
		for i < min(len(got), len(exp)) && got[i] == exp[i] {
			i++
		}
		out = append(out, fmt.Sprintf("%s from byte %d: got %q, want %q", name, i, got[i:min(len(got), i+80)], exp[i:min(len(exp), i+80)]))
	}
	return strings.Join(out, "; ")
}

// runSink records every app's terminal event kinds and hashes every
// completed run.
type runSink struct {
	kinds map[int][]dispatch.EventKind
	runs  map[int][sha256.Size]byte
}

func (s *runSink) Consume(ev dispatch.RunEvent) error {
	if ev.Kind != dispatch.EventSummary {
		s.kinds[ev.AppIndex] = append(s.kinds[ev.AppIndex], ev.Kind)
	}
	if ev.Kind != dispatch.EventRun {
		return nil
	}
	data, err := json.Marshal(ev.Run)
	s.runs[ev.AppIndex] = sha256.Sum256(data)
	return err
}

// outcome is what executing a draw leaves for the checks.
type outcome struct {
	digest digest
	// sink saw the final pass's stream (single topology only).
	sink      *runSink
	takeovers int
	// stopped reports that the stop really interrupted (see mustStop).
	stopped bool
	// retrace is the trace of the resume over a tampered outcome.
	retrace []byte
	acct    dispatch.Accounting // the digest's ledger, decoded by trial
}

// runners execute a draw in its topology under a directory.
var runners = [...]func(d draw, dir string) *outcome{runSingle, runSharded, runFiles, runProcesses}

// runSingle runs the draw in this process: its stop as a first pass,
// then the campaign (resumed after a stop) drained through a runSink.
func runSingle(d draw, dir string) *outcome {
	cfg := d.config(dir, false)
	out := &outcome{sink: &runSink{map[int][]dispatch.EventKind{}, map[int][sha256.Size]byte{}}}
	var journaled int
	if d.Stop != stopNone {
		journaled, out.stopped = interrupt(d, dir)
		cfg.Resume = true
	}
	evlog := observe(&cfg)
	exp := try1(libspector.NewExperiment(cfg))
	try(exp.RunContext(context.Background(), out.sink))
	res := exp.Result()
	out.digest = newDigest(&libspector.CampaignResult{Accounting: res.Accounting, Failures: res.Failures, Quarantined: res.Quarantined,
		Snapshot: cfg.Telemetry.Metrics().Snapshot(), Aggregates: exp.Aggregates()}, cfg.ResultStore, cfg.Telemetry, evlog)
	for app := range d.Apps {
		out.digest["runs"] = fmt.Appendf(out.digest["runs"], "%d %x\n", app, out.sink.runs[app])
	}
	if d.Stop != stopNone {
		// Every journaled outcome replays or, its evidence missing, is
		// requeued. Only a journal-crash orphans evidence.
		counters := cfg.Telemetry.Metrics().Snapshot().Counters
		replayed, requeued := counters[obs.MResumeReplayed], counters[obs.MResumeRequeued]
		if replayed+requeued != int64(journaled) || d.Stop == stopCrash && out.stopped != (requeued > 0) || d.Stop != stopCrash && requeued > 0 {
			fail("resume replayed %d and requeued %d of %d journaled outcomes after %v", replayed, requeued, journaled, d.Stop)
		}
	}
	return out
}

// interrupt runs the stop's first pass under dir and returns how many
// outcomes its journal holds for the resume, and whether it interrupted.
func interrupt(d draw, dir string) (journaled int, stopped bool) {
	cfg := d.config(dir, true)
	observe(&cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	terminal := 0
	err := try1(libspector.NewExperiment(cfg)).RunContext(ctx, dispatch.SinkFunc(func(ev dispatch.RunEvent) error {
		if ev.Kind != dispatch.EventSummary && d.Stop == stopCancel {
			if terminal++; terminal == d.At {
				cancel()
			}
		}
		return nil
	}))
	crashed, cancelled := errors.Is(err, faults.ErrInjected), errors.Is(err, context.Canceled)
	if err != nil && !crashed && !cancelled {
		fail("interrupted pass: %w", err)
	}
	if d.Stop == stopCut {
		cutJournal(cfg.Journal, d.At)
	}
	rep := try1(journal.Read(cfg.Journal))
	if d.Stop == stopTear && crashed && rep.TornBytes == 0 {
		fail("journal-tear left no torn tail")
	}
	noShutdownOutcomes(rep)
	// Only the resume may leave a result store behind.
	if err := os.Remove(cfg.ResultStore); !errors.Is(err, os.ErrNotExist) {
		try(err)
	}
	switch d.Stop {
	case stopCut:
		stopped = len(rep.Outcomes) > 0
	case stopCrash, stopTear:
		stopped = crashed
	case stopCancel:
		stopped = cancelled && len(rep.Outcomes) < d.Apps
	}
	return len(rep.Outcomes), stopped
}

// cutJournal truncates the journal to its first pct% of records, the
// header always kept, as a kill after that record would leave it.
func cutJournal(path string, pct int) {
	data := try1(os.ReadFile(path))
	var offs []int64
	_, _, err := journal.ReplayLog(data, func(off int64, _ int, _ journal.Record) error {
		offs = append(offs, off)
		return nil
	})
	try(err)
	if keep := max(1, len(offs)*pct/100); keep < len(offs) {
		try(os.WriteFile(path, data[:offs[keep]], 0o644))
	}
}

// noShutdownOutcomes fails on a journal that recorded a cancellation as
// an app's outcome, which every resume would then replay.
func noShutdownOutcomes(rep *journal.Replay) {
	for app, rec := range rep.Outcomes {
		if strings.Contains(rec.Error, "context canceled") {
			fail("app %d journaled the shutdown as its outcome: %q", app, rec.Error)
		}
	}
}

// runSharded runs the draw as in-process shards, its crash stop armed for
// the whole campaign and survived by takeovers.
func runSharded(d draw, dir string) *outcome {
	cfg := d.config(dir, true)
	evlog := observe(&cfg)
	res := try1(try1(libspector.NewExperiment(cfg)).RunSharded(context.Background(), d.Shards))
	if res.Shards != d.Shards {
		fail("result reports %d shards, ran %d", res.Shards, d.Shards)
	}
	return &outcome{digest: newDigest(res, cfg.ResultStore, cfg.Telemetry, evlog), takeovers: res.Takeovers, stopped: res.Takeovers > 0}
}

// runFiles runs each shard on its own Experiment, as a shard process
// does, reads every outcome back from its file and merges them.
func runFiles(d draw, dir string) *outcome {
	outcomes := make([]*dispatch.ShardOutcome, d.Shards)
	for i := range outcomes {
		cfg := d.config(dir, false)
		observe(&cfg)
		path := filepath.Join(dir, fmt.Sprintf("shard-%03d.outcome", i))
		try(try1(libspector.NewExperiment(cfg)).RunShardChild(context.Background(), libspector.ShardChild{Index: i, Shards: d.Shards, Out: path}))
		outcomes[i] = try1(dispatch.ReadShardOutcome(path))
	}
	cfg := d.config(dir, false)
	evlog := observe(&cfg)
	res := try1(try1(libspector.NewExperiment(cfg)).MergeShardOutcomes(outcomes))
	return &outcome{digest: newDigest(res, cfg.ResultStore, cfg.Telemetry, evlog)}
}

// TestMain lets the test binary moonlight as the process topology's
// coordinator and shard processes: with a role in its environment the
// process is a re-executed child and must not run the suite.
func TestMain(m *testing.M) {
	role := os.Getenv("LS_CHAOS_ROLE")
	if role == "" {
		os.Exit(m.Run())
	}
	if err := child(role); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", role, err)
		os.Exit(1)
	}
}

// child is one re-executed process: a shard incarnation, or the
// coordinator running the draw under its chaos schedule with shards that
// re-execute this binary. A coordinator that finishes writes the
// campaign digest next to the store.
func child(role string) (err error) {
	defer catch(&err)
	var d draw
	try(json.Unmarshal([]byte(os.Getenv("LS_CHAOS_DRAW")), &d))
	dir := os.Getenv("LS_CHAOS_DIR")
	cfg := d.config(dir, false)
	if role == "shard" {
		var sc libspector.ShardChild
		try(json.Unmarshal([]byte(os.Getenv("LS_CHAOS_CHILD")), &sc))
		cfg.Resume, cfg.ChaosKillAfterRuns = sc.Resume, sc.KillAfter
		observe(&cfg)
		return try1(libspector.NewExperiment(cfg)).RunShardChild(context.Background(), sc)
	}
	cfg.Resume = os.Getenv("LS_CHAOS_RESUME") == "true"
	cfg.CoordinatorWAL = cfg.Journal + ".coordinator"
	evlog := observe(&cfg)
	opts := libspector.ProcessOptions{Command: func(ctx context.Context, sc libspector.ShardChild) *exec.Cmd {
		spec, _ := json.Marshal(sc) // ints, strings and bools: cannot fail
		cmd := exec.CommandContext(ctx, os.Args[0])
		cmd.Env = append(os.Environ(), "LS_CHAOS_ROLE=shard", "LS_CHAOS_CHILD="+string(spec))
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		return cmd
	}}
	if d.Stop == stopKill {
		opts.ChaosSeed, opts.ChaosKill = d.Seed, d.At
	}
	res := try1(try1(libspector.NewExperiment(cfg)).RunShardProcesses(context.Background(), d.Shards, opts))
	dg := newDigest(res, cfg.ResultStore, cfg.Telemetry, evlog)
	return os.WriteFile(filepath.Join(dir, "digest.json"), try1(json.Marshal(dg)), 0o644)
}

// coordinate runs one coordinator incarnation and returns its exit code
// and output.
func coordinate(d draw, dir string, resume bool) (int, []byte) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "LS_CHAOS_ROLE=coordinator", "LS_CHAOS_DRAW="+string(try1(json.Marshal(d))),
		"LS_CHAOS_DIR="+dir, fmt.Sprintf("LS_CHAOS_RESUME=%t", resume),
		// A SIGKILLed coordinator cannot remove its outcome scratch
		// directory; keep it inside the campaign's.
		"TMPDIR="+dir)
	output, err := cmd.CombinedOutput()
	if exit := (*exec.ExitError)(nil); errors.As(err, &exit) {
		return exit.ExitCode(), output
	}
	try(err)
	return 0, output
}

// runProcesses runs the draw as shard processes under a coordinator
// process, killed by its chaos schedule and resumed from the coordinator
// WAL until it converges; with Tamper, resumed once more over a corrupted
// sealed outcome, which must change nothing.
func runProcesses(d draw, dir string) *outcome {
	code, output := coordinate(d, dir, false)
	if d.Stop == stopKill && code == 0 {
		fail("coordinator survived its own kill schedule")
	}
	for i := 0; code != 0; i++ {
		if i == 4 {
			fail("resumed campaign never converged; last incarnation exited %d:\n%s", code, output)
		}
		code, output = coordinate(d, dir, true)
	}
	read := func() (dg digest) {
		try(json.Unmarshal(try1(os.ReadFile(filepath.Join(dir, "digest.json"))), &dg))
		return dg
	}
	out := &outcome{digest: read()}
	wal := filepath.Join(dir, "campaign.journal.coordinator")
	if d.Tamper {
		shard := faults.NewProcPlan(d.Seed, d.Shards, d.At).TamperShard()
		try(faults.FlipByte(filepath.Join(wal+".outcomes", fmt.Sprintf("shard-%03d.outcome", shard)), d.Seed))
		if code, output := coordinate(d, dir, true); code != 0 {
			fail("resume over a tampered outcome exited %d:\n%s", code, output)
		}
		again := read()
		if diff := again.diff(out.digest, digestParts...); diff != "" {
			fail("resume over a tampered outcome changed the campaign: %s", diff)
		}
		out.retrace = again["trace"]
	}
	done := 0
	for _, rec := range try1(dispatch.ReplayWAL(try1(os.ReadFile(wal)))) {
		switch rec.Type {
		case "takeover":
			out.takeovers++
		case "done":
			done++
		}
	}
	if done != 1 {
		fail("coordinator WAL records %d done markers, want 1", done)
	}
	out.stopped = out.takeovers > 0
	return out
}

// harness runs draws against references it caches, in scratch
// directories under root.
type harness struct {
	root string
	mu   sync.Mutex
	refs map[draw]*outcome
}

// reference runs the draw's uninterrupted single-process campaign once.
func (h *harness) reference(d draw) *outcome {
	d.Topology, d.Shards, d.Stop, d.At, d.Tamper = topoSingle, 1, stopNone, 0, false
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.refs[d] == nil {
		h.refs[d] = runSingle(d, try1(os.MkdirTemp(h.root, "ref-")))
	}
	return h.refs[d]
}

// trial executes the draw, compares its digest with the reference's and
// runs the per-draw checks.
func (h *harness) trial(d draw) (got *outcome, err error) {
	defer catch(&err)
	if !d.valid() {
		fail("draw lies outside the harness's space")
	}
	ref := h.reference(d)
	dir := try1(os.MkdirTemp(h.root, "draw-"))
	got = runners[d.Topology](d, dir)
	if diff := got.digest.diff(ref.digest, digestParts...); diff != "" {
		fail("digest differs from the uninterrupted single-process campaign's: %s", diff)
	}
	if d.transientOnly() {
		clean := d
		clean.Faults, clean.Rate, clean.Poison = "", 0, 0
		if diff := ref.digest.diff(h.reference(clean).digest, "figures", "store", "runs"); diff != "" {
			fail("retried transient faults moved the campaign off the fault-free one: %s", diff)
		}
	}
	checkTrace(d, got.digest["trace"], ref.digest["trace"])
	if got.retrace != nil {
		checkTrace(d, got.retrace, ref.digest["trace"])
	}
	try(json.Unmarshal(got.digest["ledger"], &got.acct))
	checkLedger(d, got)
	checkEvents(d, got)
	checkDurable(d, dir, got)
	checkTakeovers(d, got, ref)
	return got, nil
}

// checkLedger: the ledger and rosters account for every app exactly
// once, only a planned fault costs an app its run, a quarantined app used
// every attempt, and the stream (where seen) agrees.
func checkLedger(d draw, got *outcome) {
	acct, ro := got.acct, rosters{}
	try(json.Unmarshal(got.digest["rosters"], &ro))
	if sum := acct.Completed + acct.SkippedARMOnly + acct.Quarantined + acct.Failed; sum != d.Apps || acct.TotalApps != d.Apps || acct.NotRun != 0 {
		fail("ledger accounts for %d of %d apps: %+v", sum, d.Apps, acct)
	}
	if len(ro.Quarantined) != acct.Quarantined || len(ro.Failures) != acct.Failed || d.MaxAttempts > 1 && acct.Failed > 0 {
		fail("rosters list %d quarantined and %d failed apps with %d attempts, the ledger %d and %d", len(ro.Quarantined), len(ro.Failures), d.MaxAttempts, acct.Quarantined, acct.Failed)
	}
	if d.transientOnly() && acct.Quarantined > 0 {
		fail("transient faults with %d attempts quarantined %d apps", d.MaxAttempts, acct.Quarantined)
	}
	cfg := d.config("", false)
	inj := try1(faults.New(faults.Config{Seed: d.Seed, Rate: cfg.FaultRate, PoisonRate: cfg.FaultPoisonRate, Classes: cfg.FaultClasses}))
	for _, f := range append(ro.Failures, ro.Quarantined...) {
		if !inj.For(f.App, f.Attempts).Faulted() || f.Err == "" {
			fail("app %d lost its run to an unplanned failure after %d attempts: %q", f.App, f.Attempts, f.Err)
		}
	}
	for _, q := range ro.Quarantined {
		if q.Attempts != d.MaxAttempts {
			fail("app %d quarantined after %d of %d attempts", q.App, q.Attempts, d.MaxAttempts)
		}
	}
	for app := 0; got.sink != nil && app < d.Apps; app++ {
		quarantined := slices.ContainsFunc(ro.Quarantined, func(q roster) bool { return q.App == app })
		if kinds := got.sink.kinds[app]; len(kinds) != 1 || quarantined != (kinds[0] == dispatch.EventQuarantine) {
			fail("app %d streamed as %v, quarantined in the roster: %t", app, kinds, quarantined)
		}
	}
}

var shardIndex = regexp.MustCompile(`"shard":\d`)

// checkEvents: one campaign.done, no shard index, and one lifecycle
// event per ledger entry.
func checkEvents(d draw, got *outcome) {
	acct, events := got.acct, got.digest["events"]
	count := func(typ string) int { return bytes.Count(events, []byte(`"type":"`+typ+`"`)) }
	if n := count("campaign.done"); n != 1 {
		fail("event log holds %d campaign.done events, want 1", n)
	}
	if shardIndex.Match(events) {
		fail("a logged event carries a shard index")
	}
	if acct.Retried > 0 && count("run.retry") == 0 {
		fail("%d apps recovered through a retry, none logged run.retry", acct.Retried)
	}
	for typ, want := range map[string]int{"run.started": d.Apps, "run.completed": acct.Completed, "run.skipped": acct.SkippedARMOnly,
		"run.failed": acct.Failed, "run.quarantined": acct.Quarantined} {
		if n := count(typ); n != want {
			fail("event log holds %d %s events, the ledger %d", n, typ, want)
		}
	}
}

// checkTrace: the trace equals the uninterrupted campaign's byte for
// byte on a draw without a stop. After a stop it keeps the replay rule
// (obs.SpanLine.ReplayStable) app by app: each app's trace is its
// uninterrupted one, or carries the resume=replay mark and agrees with
// it on the replay-stable spans, by name and attributes but the mark.
func checkTrace(d draw, got, want []byte) {
	if d.Stop == stopNone {
		if !bytes.Equal(got, want) {
			fail("trace differs from the uninterrupted single-process campaign's: %d lines, want %d", bytes.Count(got, []byte("\n")), bytes.Count(want, []byte("\n")))
		}
		return
	}
	g, w := appTraces(got), appTraces(want)
	if len(g) != len(w) {
		fail("trace holds %d app traces, the uninterrupted campaign's %d", len(g), len(w))
	}
	for id, lines := range w {
		if slices.Equal(g[id].lines, lines.lines) {
			continue
		}
		if !g[id].replayed {
			fail("app trace %s differs from the uninterrupted one without a replay:\n%s", id, strings.Join(g[id].lines, "\n"))
		}
		if got, want := g[id].stable, lines.stable; got != want {
			fail("replayed app trace %s breaks the replay rule: stable spans %s, want %s", id, got, want)
		}
	}
}

// appTrace is one app's share of a trace: its JSONL lines, whether a
// span carries the resume=replay mark, and its replay-stable spans.
type appTrace struct {
	lines    []string
	replayed bool
	stable   string
}

func appTraces(trace []byte) map[string]appTrace {
	out := map[string]appTrace{}
	for _, line := range strings.SplitAfter(string(trace), "\n") {
		if line == "" {
			continue
		}
		var s obs.SpanLine
		try(json.Unmarshal([]byte(line), &s))
		at := out[s.Trace]
		at.lines = append(at.lines, line)
		at.replayed = at.replayed || s.Attrs["resume"] == "replay"
		if s.ReplayStable() {
			delete(s.Attrs, "resume")
			at.stable += fmt.Sprintf("%s%v;", s.Name, s.Attrs)
		}
		out[s.Trace] = at
	}
	return out
}

// checkDurable: a durable campaign's store verifies and its journals hold
// every app's outcome, none in flight and none a shutdown; any other
// campaign wrote no store.
func checkDurable(d draw, dir string, got *outcome) {
	if !d.Durable {
		if len(got.digest["store"]) > 0 {
			fail("campaign without a result store wrote one")
		}
		return
	}
	st := try1(resultstore.OpenBytes(got.digest["store"]))
	try(st.Verify())
	if got.acct.Completed > 0 && st.Records() == 0 {
		fail("result store is empty after completed runs")
	}
	base, paths := d.config(dir, false).Journal, []string{}
	for i := range d.Shards {
		paths = append(paths, libspector.ShardPath(base, i))
	}
	if d.Topology == topoSingle {
		paths = []string{base}
	}
	outcomes := 0
	for _, path := range paths {
		rep := try1(journal.Read(path))
		if len(rep.InFlight) != 0 {
			fail("%s leaves apps %v in flight", filepath.Base(path), rep.InFlight)
		}
		noShutdownOutcomes(rep)
		outcomes += len(rep.Outcomes)
	}
	if outcomes != d.Apps {
		fail("journals hold %d outcomes for %d apps", outcomes, d.Apps)
	}
}

// checkTakeovers: in-process shards are taken over exactly when the
// crash stop hit an app the reference completed.
func checkTakeovers(d draw, got, ref *outcome) {
	cfg, fired := d.config("", true), false
	inj := try1(faults.New(faults.Config{Seed: d.Seed, Rate: cfg.FaultRate, Classes: cfg.FaultClasses}))
	for app := range ref.sink.runs {
		fired = fired || crashClasses[d.Stop] != 0 && inj.For(app, 1).Class == crashClasses[d.Stop]
	}
	if d.Topology == topoSharded && fired != (got.takeovers > 0) {
		fail("%d takeovers, crash fired: %t", got.takeovers, fired)
	}
}

// shrink simplifies a failing draw greedily — drop the stop, zero the
// faults, go to one shard, halve the apps, give each shard one worker —
// while the simpler draw still fails.
func (h *harness) shrink(d draw, err error) (draw, error) {
	steps := []func(d draw) draw{
		func(d draw) draw { d.Stop, d.At, d.Tamper = stopNone, 0, false; return d },
		func(d draw) draw { d.Faults, d.Rate, d.Poison = "", 0, 0; return d },
		func(d draw) draw { d.Shards = 1; return d },
		func(d draw) draw { d.Apps = max(d.Apps/2, d.Shards, 2); return d },
		func(d draw) draw { d.Workers = d.Shards; return d },
	}
	for progress := true; progress; {
		progress = false
		for _, step := range steps {
			if next := step(d); next != d && next.valid() {
				if _, nextErr := h.trial(next); nextErr != nil {
					d, err, progress = next, nextErr, true
				}
			}
		}
	}
	return d, err
}

// must is what a pinned row asserts its draw exercised, beyond the
// per-draw checks.
type must int

const (
	mustRetry      must = 1 << iota // some app recovered through a retry
	mustQuarantine                  // some app exhausted its attempts
	// mustStop: a cut journal replays an outcome; a crash or tear kills
	// the first pass, or costs a takeover on shards; a cancel leaves the
	// resume work; a kill schedule costs a takeover.
	mustStop
)

// pinned holds one row per invariance test the harness replaced, named
// after it; the two with cases of their own (TestResultStoreShardInvariance,
// TestResumeSnapshotUnderRunFaults) keep their names and run their rows
// through the same check. Paste a shrunk failure's literal here to keep it.
var pinned = []struct {
	name string
	must must
	d    draw
}{
	// An uneven 7-shard split of an honest campaign drifts from one process, or invents a shard death.
	{"ShardCountInvarianceHonest", 0, draw{Seed: 71, Apps: 12, Workers: 8, Shards: 7, Topology: topoSharded, MaxAttempts: 3}},
	// Retries and quarantines merge differently across 4 shards than they happen in one process.
	{"ShardCountInvarianceUnderFaults", mustRetry | mustQuarantine, draw{Seed: 199, Apps: 12, Workers: 8, Shards: 4, Topology: topoSharded, Faults: "emulator-abort,datagram-drop,hook-fault", Rate: 0.3, Poison: 0.3, MaxAttempts: 3}},
	// A shard killed after journaling a run, taken over and replayed, loses or doubles the run or its meters.
	{"ShardKillAndTakeover", mustStop, draw{Seed: 71, Apps: 12, Workers: 8, Shards: 4, Topology: topoSharded, MaxAttempts: 3, Durable: true, Stop: stopCrash, At: 20}},
	// Shard outcomes written to files, read back and merged on a fresh experiment diverge from one process.
	{"MergeShardOutcomesProcessMode", 0, draw{Seed: 71, Apps: 12, Workers: 8, Shards: 3, Topology: topoFiles, MaxAttempts: 3, Durable: true}},
	// A 2-shard event log differs from one process's: a shard index, a topology event, or a second campaign.done.
	{"EventLogShardCountInvariance", 0, draw{Seed: 71, Apps: 12, Workers: 8, Shards: 2, Topology: topoSharded, MaxAttempts: 3}},
	// Retry and quarantine events of a 2-shard faulted campaign log differently than in one process.
	{"EventLogInvarianceUnderFaults", mustRetry | mustQuarantine, draw{Seed: 199, Apps: 12, Workers: 8, Shards: 2, Topology: topoSharded, Faults: "emulator-abort,datagram-drop,hook-fault", Rate: 0.3, Poison: 0.3, MaxAttempts: 3}},
	// SIGKILLed shard and coordinator processes, resumed from the WAL and over a tampered seal, diverge.
	// Every shard is a victim and dies after one run, so no shard seals before a takeover is journaled
	// and the coordinator's kill, past the attempt records, always follows one.
	{"ChaosKillResumeByteIdentical", mustStop, draw{Seed: 1478, Apps: 12, Workers: 8, Shards: 4, Topology: topoProcess, MaxAttempts: 3, Durable: true, Stop: stopKill, At: 4, Tamper: true}},
	// Two same-seed single-process campaigns differ.
	{"ExperimentDeterminism", 0, draw{Seed: 47, Apps: 10, Workers: 8, Shards: 1, Topology: topoSingle, MaxAttempts: 1}},
	// A journal cut two thirds through a faulted campaign resumes to other bytes than the uninterrupted run.
	{"Resume500AppKillByteIdentical", mustRetry | mustQuarantine | mustStop, draw{Seed: 199, Apps: 12, Workers: 8, Shards: 1, Topology: topoSingle, Faults: "emulator-abort,datagram-drop,hook-fault", Rate: 0.3, Poison: 0.3, MaxAttempts: 3, Durable: true, Stop: stopCut, At: 66}},
	// Retrying a transient fault on every app perturbs the fault-free campaign's runs, figures or store.
	{"FaultTransientRecoveryMatchesCleanRun", mustRetry, draw{Seed: 71, Apps: 12, Workers: 8, Shards: 1, Topology: topoSingle, Faults: "emulator-abort,capture-truncate,datagram-drop,hook-fault", Rate: 1, MaxAttempts: 3}},
	// Two same-seed 4-worker campaigns complete different runs.
	{"FleetDeterminism", 0, draw{Seed: 33, Apps: 8, Workers: 4, Shards: 1, Topology: topoSingle, MaxAttempts: 1}},
	// A run journaled as done whose evidence never reached the store is trusted on resume instead of requeued.
	{"JournalCrashFaultResumesClean", mustStop, draw{Seed: 71, Apps: 12, Workers: 8, Shards: 1, Topology: topoSingle, MaxAttempts: 3, Durable: true, Stop: stopCrash, At: 100}},
	// A torn journal tail fails recovery, or its half-written app is not requeued.
	{"JournalTearFaultResumesClean", mustStop, draw{Seed: 71, Apps: 12, Workers: 8, Shards: 1, Topology: topoSingle, MaxAttempts: 3, Durable: true, Stop: stopTear, At: 100}},
	// A cancel journals "context canceled" as in-flight apps' outcomes, or resumes to other bytes.
	{"CancelledCampaignResumesClean", mustStop, draw{Seed: 71, Apps: 12, Workers: 1, Shards: 1, Topology: topoSingle, MaxAttempts: 3, Durable: true, Stop: stopCancel, At: 2}},
	// A degraded campaign loses an app, streams one twice, or quarantines one short of its attempts.
	{"FaultAccountingNoSilentLoss", mustRetry | mustQuarantine, draw{Seed: 71, Apps: 12, Workers: 8, Shards: 1, Topology: topoSingle, Faults: "emulator-abort,capture-truncate,datagram-drop,hook-fault", Rate: 0.3, Poison: 0.3, MaxAttempts: 3}},
}

// newHarness returns a harness whose scratch directories live under the
// test's temporary directory.
func newHarness(t *testing.T) *harness {
	return &harness{root: t.TempDir(), refs: map[draw]*outcome{}}
}

// check runs the draw as a parallel subtest: a failing draw is shrunk and
// reported, a passing one must have exercised what m asserts.
func (h *harness) check(t *testing.T, d draw, m must) {
	t.Parallel()
	if d.Topology == topoProcess && testing.Short() {
		t.Skip("the process topology re-executes the test binary; skipped in -short")
	}
	got, err := h.trial(d)
	if err != nil {
		small, smallErr := h.shrink(d, err)
		t.Fatalf("%#v failed: %v\nshrunk to\n\t%#v,\nwhich fails with: %v", d, err, small, smallErr)
	}
	if acct := got.acct; m&mustRetry != 0 && acct.Retried == 0 || m&mustQuarantine != 0 && acct.Quarantined == 0 || m&mustStop != 0 && !got.stopped {
		t.Errorf("the draw exercised less than its row asserts: %d retried, %d quarantined, stop interrupted: %t", acct.Retried, acct.Quarantined, got.stopped)
	}
}

// TestDeterminism runs every pinned row, then one fresh draw from a
// time-derived seed. -short skips the process topology.
func TestDeterminism(t *testing.T) {
	h := newHarness(t)
	for _, row := range pinned {
		t.Run(row.name, func(t *testing.T) { h.check(t, row.d, row.must) })
	}
	seed := uint64(time.Now().UnixNano())
	d := randomDraw(rand.New(rand.NewPCG(seed, 0)), !testing.Short())
	t.Logf("fresh draw from seed %d: %#v", seed, d)
	t.Run("fresh", func(t *testing.T) { h.check(t, d, 0) })
}

// TestResultStoreShardInvariance: the result store a durable N-shard
// campaign merges from its shard segments is byte-identical to the
// single-process store of the same seed (the digest's "store" part), for
// an even, an uneven and a trivial split.
func TestResultStoreShardInvariance(t *testing.T) {
	h := newHarness(t)
	for _, shards := range []int{1, 2, 4} {
		d := draw{Seed: 71, Apps: 12, Workers: 8, Shards: shards, Topology: topoSharded, MaxAttempts: 3, Durable: true}
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) { h.check(t, d, 0) })
	}
}

// TestResumeSnapshotUnderRunFaults: resuming the complete journal of a
// campaign whose apps failed and retried (and, in the poison case, were
// quarantined) replays every app and restores exactly the telemetry each
// attempt charged — the digest's metrics part, minus the resume series.
func TestResumeSnapshotUnderRunFaults(t *testing.T) {
	h := newHarness(t)
	for _, tc := range []struct {
		name   string
		poison float64
		must   must
	}{{"transient", 0, mustRetry | mustStop}, {"poison", 0.3, mustRetry | mustQuarantine | mustStop}} {
		d := draw{Seed: 199, Apps: 12, Workers: 8, Shards: 1, Topology: topoSingle, Faults: "emulator-abort,datagram-drop,hook-fault",
			Rate: 0.3, Poison: tc.poison, MaxAttempts: 3, Durable: true, Stop: stopCut, At: 100}
		t.Run(tc.name, func(t *testing.T) { h.check(t, d, tc.must) })
	}
}
