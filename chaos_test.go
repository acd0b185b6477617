package libspector_test

// The process-level chaos harness. Unlike the in-process kill tests
// (TestShardKillAndTakeover, the journal boundary sweeps), this file
// SIGKILLs real processes: the test binary re-executes itself as shard
// children and as the supervising coordinator, the seeded faults.ProcPlan
// kills shard children mid-run and the coordinator itself mid-campaign,
// and the driver resumes the coordinator from its WAL until the campaign
// converges. The pinned invariant is the paper-reproduction contract:
// figures, result store, and the -events-out JSONL of the chaos run are
// byte-identical to an uninterrupted single-process run of the same seed.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	"libspector"
	"libspector/internal/dispatch"
	"libspector/internal/faults"
	"libspector/internal/obs"
)

// TestMain lets the test binary moonlight as the chaos harness's shard
// and coordinator processes: when a role env var is set, the process is
// a re-exec'd child and must not run the test suite.
func TestMain(m *testing.M) {
	switch os.Getenv("LS_CHAOS_ROLE") {
	case "shard":
		os.Exit(chaosShardMain())
	case "coordinator":
		os.Exit(chaosCoordinatorMain())
	}
	os.Exit(m.Run())
}

func chaosEnvInt(name string) int {
	n, _ := strconv.Atoi(os.Getenv(name))
	return n
}

func chaosEnvBool(name string) bool {
	b, _ := strconv.ParseBool(os.Getenv(name))
	return b
}

func chaosEnvUint64(name string) uint64 {
	n, _ := strconv.ParseUint(os.Getenv(name), 10, 64)
	return n
}

// chaosCampaignConfig is the shared campaign shape for baseline and
// chaos runs: every result-shaping knob identical (so the config
// fingerprints match and byte-identity is meaningful), with the
// durability paths rooted in dir.
func chaosCampaignConfig(seed uint64, apps int, dir string) libspector.Config {
	cfg := campaignConfig(seed, apps)
	cfg.MonkeyEvents = 60 // 500 apps x 4 shards x multiple incarnations: keep each run lean
	cfg.Journal = filepath.Join(dir, "campaign.journal")
	cfg.ArtifactDir = filepath.Join(dir, "artifacts")
	cfg.ResultStore = filepath.Join(dir, "store.bin")
	return cfg
}

// chaosTelemetry attaches virtual telemetry with a bus and a
// deterministic event log to cfg and returns the log.
func chaosTelemetry(cfg *libspector.Config) *obs.EventLog {
	tel := obs.NewVirtual(nil)
	tel.SetBus(obs.NewBus(tel.Metrics()))
	evlog := obs.NewEventLog()
	evlog.AttachTo(tel.Bus())
	cfg.Telemetry = tel
	return evlog
}

func chaosExit(role string, err error) int {
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos %s: %v\n", role, err)
		return 1
	}
	return 0
}

// chaosShardMain is the re-exec'd shard child: the shared child entry
// point (event log strictly before outcome file) over a config rebuilt
// from the environment the coordinator's command factory rendered.
func chaosShardMain() int {
	cfg := chaosCampaignConfig(chaosEnvUint64("LS_CHAOS_SEED"), chaosEnvInt("LS_CHAOS_APPS"), os.Getenv("LS_CHAOS_DIR"))
	cfg.Resume = chaosEnvBool("LS_CHAOS_RESUME")
	cfg.ChaosKillAfterRuns = chaosEnvInt("LS_CHAOS_KILL_AFTER")
	evlog := chaosTelemetry(&cfg)
	exp, err := libspector.NewExperiment(cfg)
	if err == nil {
		err = exp.RunShardChild(context.Background(), libspector.ShardChild{
			Index:     chaosEnvInt("LS_CHAOS_INDEX"),
			Shards:    chaosEnvInt("LS_CHAOS_SHARDS"),
			Out:       os.Getenv("LS_CHAOS_OUT"),
			EventsOut: os.Getenv("LS_CHAOS_EVENTS"),
		}, evlog)
	}
	return chaosExit("shard", err)
}

// chaosCoordinatorMain is the re-exec'd supervising coordinator: the
// shared process runner under the seeded chaos plan, with a command
// factory that re-execs this test binary as the shard child. A fresh
// incarnation dies at the plan's WAL record; on success it writes the
// campaign figures next to the store and the merged event log.
func chaosCoordinatorMain() int {
	dir := os.Getenv("LS_CHAOS_DIR")
	seed, apps := chaosEnvUint64("LS_CHAOS_SEED"), chaosEnvInt("LS_CHAOS_APPS")
	shards := chaosEnvInt("LS_CHAOS_SHARDS")
	cfg := chaosCampaignConfig(seed, apps, dir)
	cfg.Resume = chaosEnvBool("LS_CHAOS_RESUME")
	cfg.CoordinatorWAL = cfg.Journal + ".coordinator"
	evlog := chaosTelemetry(&cfg)
	exp, err := libspector.NewExperiment(cfg)
	if err != nil {
		return chaosExit("coordinator", err)
	}
	res, err := exp.RunShardProcesses(context.Background(), shards, libspector.ProcessOptions{
		Command: func(ctx context.Context, child libspector.ShardChild) *exec.Cmd {
			cmd := exec.CommandContext(ctx, os.Args[0])
			cmd.Env = append(os.Environ(),
				"LS_CHAOS_ROLE=shard",
				fmt.Sprintf("LS_CHAOS_INDEX=%d", child.Index),
				"LS_CHAOS_OUT="+child.Out,
				"LS_CHAOS_EVENTS="+child.EventsOut,
				fmt.Sprintf("LS_CHAOS_RESUME=%t", child.Resume),
				fmt.Sprintf("LS_CHAOS_KILL_AFTER=%d", child.KillAfter),
			)
			cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
			return cmd
		},
		EventsOut: filepath.Join(dir, "events.jsonl"),
		Events:    evlog,
		ChaosSeed: chaosEnvUint64("LS_CHAOS_PLAN_SEED"),
		ChaosKill: chaosEnvInt("LS_CHAOS_KILLS"),
	})
	if err != nil {
		return chaosExit("coordinator", err)
	}
	fig, err := os.Create(filepath.Join(dir, "figures.json"))
	if err != nil {
		return chaosExit("coordinator", err)
	}
	if err := res.Aggregates.Summarize(25).WriteJSON(fig); err != nil {
		return chaosExit("coordinator", err)
	}
	return chaosExit("coordinator", fig.Close())
}

// chaosOutputs is the byte-identity triple the harness pins.
type chaosOutputs struct {
	figures []byte
	store   []byte
	events  []byte
}

// runChaosBaseline executes the uninterrupted single-process campaign
// in-process and captures the canonical outputs.
func runChaosBaseline(t *testing.T, seed uint64, apps int, dir string) chaosOutputs {
	t.Helper()
	cfg := chaosCampaignConfig(seed, apps, dir)
	evlog := chaosTelemetry(&cfg)
	exp, err := libspector.NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Run(); err != nil {
		t.Fatal(err)
	}
	store, err := os.ReadFile(cfg.ResultStore)
	if err != nil {
		t.Fatal(err)
	}
	var events bytes.Buffer
	if err := evlog.WriteJSONL(&events); err != nil {
		t.Fatal(err)
	}
	return chaosOutputs{figures: renderFigures(t, exp), store: store, events: events.Bytes()}
}

// runChaosCoordinator re-execs the test binary as a coordinator
// incarnation and reports its exit code.
func runChaosCoordinator(t *testing.T, dir string, seed uint64, apps, shards, kills int, planSeed uint64, resume bool) int {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"LS_CHAOS_ROLE=coordinator",
		"LS_CHAOS_DIR="+dir,
		// A SIGKILLed coordinator cannot remove its per-attempt outcome
		// scratch dir; keep it inside the test's own temp dir.
		"TMPDIR="+dir,
		fmt.Sprintf("LS_CHAOS_SEED=%d", seed),
		fmt.Sprintf("LS_CHAOS_APPS=%d", apps),
		fmt.Sprintf("LS_CHAOS_SHARDS=%d", shards),
		fmt.Sprintf("LS_CHAOS_KILLS=%d", kills),
		fmt.Sprintf("LS_CHAOS_PLAN_SEED=%d", planSeed),
	)
	if resume {
		cmd.Env = append(cmd.Env, "LS_CHAOS_RESUME=1")
	} else {
		cmd.Env = append(cmd.Env, "LS_CHAOS_RESUME=0")
	}
	var output bytes.Buffer
	cmd.Stdout, cmd.Stderr = &output, &output
	err := cmd.Run()
	if err == nil {
		return 0
	}
	var exit *exec.ExitError
	if ok := errorsAs(err, &exit); ok {
		t.Logf("coordinator incarnation exited %d:\n%s", exit.ExitCode(), output.Bytes())
		return exit.ExitCode()
	}
	t.Fatalf("spawning coordinator: %v\n%s", err, output.Bytes())
	return -1
}

// errorsAs avoids importing errors just for one assertion site.
func errorsAs(err error, target *(*exec.ExitError)) bool {
	e, ok := err.(*exec.ExitError)
	if ok {
		*target = e
	}
	return ok
}

func compareChaosOutputs(t *testing.T, label string, want chaosOutputs, dir string) {
	t.Helper()
	got := chaosOutputs{}
	var err error
	if got.figures, err = os.ReadFile(filepath.Join(dir, "figures.json")); err != nil {
		t.Fatal(err)
	}
	if got.store, err = os.ReadFile(filepath.Join(dir, "store.bin")); err != nil {
		t.Fatal(err)
	}
	if got.events, err = os.ReadFile(filepath.Join(dir, "events.jsonl")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.figures, got.figures) {
		t.Errorf("%s: figures diverged from the uninterrupted baseline", label)
	}
	if !bytes.Equal(want.store, got.store) {
		t.Errorf("%s: result store diverged from the uninterrupted baseline", label)
	}
	if !bytes.Equal(want.events, got.events) {
		t.Errorf("%s: event log diverged from the uninterrupted baseline:\nbaseline %d bytes, chaos %d bytes", label, len(want.events), len(got.events))
	}
}

// TestChaosKillResumeByteIdentical is the chaos-invariance acceptance
// test: a 500-app 4-shard campaign whose seeded schedule SIGKILLs two
// shard child processes mid-run and the coordinator itself mid-campaign
// must, once resumed from the coordinator WAL, produce figures, result
// store, and events JSONL byte-identical to an uninterrupted
// single-process run of the same seed — and survive a tampered sealed
// outcome on a further resume.
func TestChaosKillResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness re-execs the test binary and runs a 500-app campaign; skipped in -short")
	}
	const (
		seed     = 101
		planSeed = 7
		apps     = 500
		shards   = 4
		kills    = 2
	)
	want := runChaosBaseline(t, seed, apps, t.TempDir())

	dir := t.TempDir()
	// Incarnation 1: fresh, full chaos schedule. The coordinator kill
	// record is always reached (every campaign writes more records than
	// the kill point), so this incarnation MUST die.
	if code := runChaosCoordinator(t, dir, seed, apps, shards, kills, planSeed, false); code == 0 {
		t.Fatal("chaos coordinator survived its own kill schedule")
	}
	// Resume until convergence. One clean resume should finish the
	// campaign; the bound only guards against a hung harness.
	converged := false
	for i := 0; i < 4 && !converged; i++ {
		converged = runChaosCoordinator(t, dir, seed, apps, shards, 0, 0, true) == 0
	}
	if !converged {
		t.Fatal("resumed campaign never converged")
	}
	compareChaosOutputs(t, "after kill+resume", want, dir)

	// The WAL must tell the story: ≥1 takeover bought by the chaos kills,
	// budget preserved across incarnations, campaign committed.
	walPath := filepath.Join(dir, "campaign.journal.coordinator")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := dispatch.ReplayWAL(data)
	if err != nil {
		t.Fatal(err)
	}
	var takeovers, done int
	for _, rec := range recs {
		switch rec.Type {
		case "takeover":
			takeovers++
		case "done":
			done++
		}
	}
	if takeovers < 1 {
		t.Errorf("WAL records %d takeovers; the chaos schedule killed %d shard children", takeovers, kills)
	}
	if done != 1 {
		t.Errorf("WAL records %d done markers, want exactly 1", done)
	}

	// Disk rot on a sealed outcome: the next resume must detect the sha
	// mismatch, replay that shard from its journal, and converge again.
	plan := faults.NewProcPlan(planSeed, shards, kills)
	victim := filepath.Join(walPath+".outcomes", fmt.Sprintf("shard-%03d.outcome", plan.TamperShard()))
	if err := faults.FlipByte(victim, planSeed); err != nil {
		t.Fatal(err)
	}
	if code := runChaosCoordinator(t, dir, seed, apps, shards, 0, 0, true); code != 0 {
		t.Fatalf("resume after outcome tamper exited %d", code)
	}
	compareChaosOutputs(t, "after tamper+resume", want, dir)
}
