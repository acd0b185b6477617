package fleetflags

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"libspector"
)

// allGroups is cmd/libspector's flag set: every group, so a child
// re-executed on ChildArgs can parse whatever its parent was given.
func allGroups() (*flag.FlagSet, *Flags) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs, New(fs).Corpus(300, 0).World().Durability().Faults().Ops().ShardFlags().Supervision()
}

func parse(t *testing.T, args []string) (*Flags, libspector.Config) {
	t.Helper()
	fs, f := allGroups()
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parsing %q: %v", args, err)
	}
	cfg, err := f.Config()
	if err != nil {
		t.Fatalf("config from %q: %v", args, err)
	}
	return f, cfg
}

// policy is everything outside the fingerprint that a child must inherit
// for its shard to behave as the parent's campaign would have.
func policy(c libspector.Config) []any {
	return []any{c.Workers, c.ContinueOnError, c.RunTimeout, c.MaxAttempts, c.RetryBackoff,
		c.FaultRate, c.FaultPoisonRate, c.FaultClasses, c.ArtifactDir, c.Journal}
}

// TestChildArgvRoundTrip: the config a child parses from the argv its
// parent renders has the parent's fingerprint and fault/retry policy, and
// the per-incarnation flags come from the ShardChild — never inherited.
func TestChildArgvRoundTrip(t *testing.T) {
	child := libspector.ShardChild{
		Index: 2, Shards: 4, Attempt: 1, Out: "/tmp/out.json",
		MetricsAddr: "127.0.0.1:9102", KillAfter: 3,
	}
	for name, args := range map[string][]string{
		"defaults": {"-shards", "4"},
		"faults": {"-shards", "4", "-continue-on-error", "-fault-rate", "0.25", "-fault-poison", "0.3",
			"-max-attempts", "3", "-retry-backoff", "100ms", "-run-timeout", "5s",
			"-fault-classes", "emulator-abort,hook-fault"},
		"durability": {"-shards", "4", "-journal", "c.wal", "-artifacts", "evidence", "-resume",
			"-coordinator-wal", "c.coord"},
		"scales": {"-shards", "4", "-apps", "40", "-seed", "7", "-workers", "8",
			"-domain-scale", "0.1", "-method-scale", "0.05", "-volume-scale", "2", "-throttle", "250"},
		"events and supervision": {"-shards", "4", "-journal", "c.wal", "-events", "120", "-events-out", "ev.jsonl",
			"-trace-out", "t.jsonl", "-metrics-addr", "127.0.0.1:9000", "-probe-base-port", "9100",
			"-probe-strikes", "5", "-stall-deadline", "30s", "-chaos-seed", "7", "-chaos-kill", "2"},
	} {
		t.Run(name, func(t *testing.T) {
			parent, pcfg := parse(t, args)
			// Takeovers (and so -resume children) only exist with a journal.
			child := child
			child.Resume = pcfg.Journal != ""
			argv := parent.ChildArgs(child)
			cf, ccfg := parse(t, argv)
			if got, want := ccfg.Fingerprint(), pcfg.Fingerprint(); got != want {
				t.Errorf("child fingerprint %s != parent %s\nargv: %q", got, want, argv)
			}
			if got, want := policy(ccfg), policy(pcfg); !reflect.DeepEqual(got, want) {
				t.Errorf("child policy %v != parent %v\nargv: %q", got, want, argv)
			}
			if cf.Shards != 4 || cf.ShardIndex != 2 || cf.shardOut != child.Out {
				t.Errorf("child shard identity = %d/%d -> %q", cf.ShardIndex, cf.Shards, cf.shardOut)
			}
			if ccfg.Resume != child.Resume || ccfg.ChaosKillAfterRuns != 3 || cf.metricsAddr != child.MetricsAddr {
				t.Errorf("per-incarnation flags not re-issued from the ShardChild: %q", argv)
			}
			if ccfg.CoordinatorWAL != "" || cf.traceOut != "" || cf.eventsOut != "" || !reflect.DeepEqual(cf.proc, libspector.ProcessOptions{ProbeStrikes: 3}) {
				t.Errorf("parent-only flags leaked into the child: %q", argv)
			}
		})
	}
}

// TestGroupsLeaveDefaults: a binary that registers only some groups (as
// libreport does) gets DefaultConfig for the rest — in particular the
// fingerprinted world fields — and the flags it did not adopt stay
// undefined, free for its own meanings.
func TestGroupsLeaveDefaults(t *testing.T) {
	fs := flag.NewFlagSet("libreport", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := New(fs).Corpus(200, 0).ShardFlags().EventLog()
	store := fs.String("store", "", "libreport's own -store")
	if err := fs.Parse([]string{"-apps", "25", "-store", "x.lss"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := libspector.DefaultConfig()
	want.Apps, want.Workers = 25, 0
	if !reflect.DeepEqual(cfg, want) || *store != "x.lss" {
		t.Errorf("config = %+v, want defaults with 25 apps", cfg)
	}
	if f.Tel != nil || f.Events != nil {
		t.Error("an unobserved libreport run must stay untelemetered")
	}
	// A shard child always publishes: its outcome carries its event log.
	fs = flag.NewFlagSet("libreport", flag.ContinueOnError)
	f = New(fs).Corpus(200, 0).ShardFlags().EventLog()
	if err := fs.Parse([]string{"-shards", "2", "-shard-index", "1", "-shard-out", "o"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Open(); err != nil {
		t.Fatal(err)
	}
	if !f.Tel.Virtual() || f.Tel.Bus() == nil || f.Events != nil {
		t.Error("a shard child runs without virtual telemetry and an event bus")
	}
}

func TestCrossFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-resume"}, "-resume requires -journal"},
		{[]string{"-coordinator-wal", "w"}, "requires -shards > 1"},
		{[]string{"-shards", "2", "-chaos-kill", "1"}, "-chaos-kill requires -journal"},
		{[]string{"-fault-classes", "nope"}, "unknown class"},
		{[]string{"-shards", "2", "-shard-index", "0", "-events-out", "e"}, "-events-out belongs to the merging parent"},
	} {
		fs, f := allGroups()
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Config(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want %q", tc.args, err, tc.want)
		}
	}
	// A -shards parent with a journal gets the default WAL; a child never.
	if _, cfg := parse(t, []string{"-shards", "2", "-journal", "j"}); cfg.CoordinatorWAL != "j.coordinator" {
		t.Errorf("default WAL = %q", cfg.CoordinatorWAL)
	}
	if _, cfg := parse(t, []string{"-shards", "2", "-journal", "j", "-shard-index", "0"}); cfg.CoordinatorWAL != "" {
		t.Errorf("child got a coordinator WAL %q", cfg.CoordinatorWAL)
	}
}
