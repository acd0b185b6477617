package borderpatrol_test

import (
	"bytes"
	"errors"
	"testing"

	"libspector/internal/art"
	"libspector/internal/attribution"
	"libspector/internal/borderpatrol"
	"libspector/internal/corpus"
	"libspector/internal/emulator"
	"libspector/internal/nets"
	"libspector/internal/synth"
	"libspector/internal/xposed"
)

func TestPolicyValidation(t *testing.T) {
	if err := (borderpatrol.Policy{BlockedLibraryPrefixes: []string{""}}).Validate(); err == nil {
		t.Error("empty prefix should fail")
	}
	if err := (borderpatrol.Policy{BlockedDomains: []string{""}}).Validate(); err == nil {
		t.Error("empty domain should fail")
	}
	if err := borderpatrol.PolicyFromAnTList().Validate(); err != nil {
		t.Errorf("AnT policy invalid: %v", err)
	}
	if _, err := borderpatrol.NewEnforcer(borderpatrol.Policy{}, nil); err == nil {
		t.Error("nil thread should fail")
	}
}

func TestOriginOfStack(t *testing.T) {
	e, err := borderpatrol.NewEnforcer(borderpatrol.Policy{}, &art.Thread{})
	if err != nil {
		t.Fatal(err)
	}
	frames := []art.Frame{
		{Qualified: "java.net.Socket.connect"},
		{Qualified: "com.android.okhttp.Connection.connect"},
		{Qualified: "com.unity3d.ads.android.cache.b.doInBackground"},
		{Qualified: "android.os.AsyncTask$2.call"},
		{Qualified: "java.util.concurrent.FutureTask.run"},
	}
	origin, ok := e.OriginOfStack(frames)
	if !ok || origin != "com.unity3d.ads.android.cache" {
		t.Errorf("origin = %q, %v", origin, ok)
	}
	builtinOnly := []art.Frame{
		{Qualified: "java.net.Socket.connect"},
		{Qualified: "com.android.internal.os.ZygoteInit.main"},
	}
	if _, ok := e.OriginOfStack(builtinOnly); ok {
		t.Error("builtin-only stack should have no origin")
	}
}

func TestEnforcerBlocksBlacklistedLibrary(t *testing.T) {
	thread := &art.Thread{}
	enforcer, err := borderpatrol.NewEnforcer(borderpatrol.Policy{
		BlockedLibraryPrefixes: []string{"com.vungle"},
		BlockedDomains:         []string{"evil.example.com"},
	}, thread)
	if err != nil {
		t.Fatal(err)
	}
	resolver := nets.NewStaticResolver()
	for _, d := range []string{"ads.example.com", "evil.example.com"} {
		if err := resolver.Add(d, nets.DefaultLocalAddr); err != nil {
			t.Fatal(err)
		}
	}
	stack, err := nets.NewStack(nets.Config{Resolver: resolver, Clock: nets.NewClock(emulator.DefaultOptions(1).StartTime)})
	if err != nil {
		t.Fatal(err)
	}
	enforcer.Bind(stack)

	// A vungle-originated connect is denied.
	thread.Push(art.Frame{Qualified: "java.lang.Thread.run"})
	thread.Push(art.Frame{Qualified: "com.vungle.publisher.AdLoader.fetch"})
	thread.Push(art.Frame{Qualified: "java.net.Socket.connect"})
	if _, err := stack.Dial("ads.example.com", 80); !errors.Is(err, nets.ErrBlocked) {
		t.Errorf("blacklisted library dial error = %v, want ErrBlocked", err)
	}

	// A first-party connect to an allowed domain passes.
	thread.Reset()
	thread.Push(art.Frame{Qualified: "java.lang.Thread.run"})
	thread.Push(art.Frame{Qualified: "com.myapp.net.Api.fetch"})
	thread.Push(art.Frame{Qualified: "java.net.Socket.connect"})
	if _, err := stack.Dial("ads.example.com", 80); err != nil {
		t.Errorf("allowed dial failed: %v", err)
	}
	// …but the blacklisted domain is denied regardless of origin.
	if _, err := stack.Dial("evil.example.com", 443); !errors.Is(err, nets.ErrBlocked) {
		t.Errorf("blacklisted domain dial error = %v, want ErrBlocked", err)
	}

	violations := enforcer.Violations()
	if len(violations) != 2 {
		t.Fatalf("violations = %d, want 2", len(violations))
	}
	if violations[0].Rule != "library:com.vungle.publisher" {
		t.Errorf("violation 0 rule = %q", violations[0].Rule)
	}
	if violations[1].Rule != "domain:evil.example.com" {
		t.Errorf("violation 1 rule = %q", violations[1].Rule)
	}
	if stack.BlockedConnections() != 2 {
		t.Errorf("blocked connections = %d", stack.BlockedConnections())
	}
}

// TestEnforcedRunSuppressesAnTTraffic runs a full app under the AnT
// blacklist and verifies the attributed traffic contains no AnT-listed
// origins while the app keeps functioning.
func TestEnforcedRunSuppressesAnTTraffic(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Seed = 71
	cfg.NumApps = 6
	cfg.ARMOnlyRate = 0
	world, err := synth.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	policy := borderpatrol.PolicyFromAnTList()

	var blockedTotal int64
	var flowsChecked int
	for i := 0; i < cfg.NumApps; i++ {
		app, err := world.GenerateApp(i)
		if err != nil {
			t.Fatal(err)
		}
		opts := emulator.DefaultOptions(71)
		opts.Monkey.Events = 150
		opts.Policy = &policy
		arts, err := emulator.Run(emulator.Installation{Program: app.Program, APKSHA256: app.SHA256}, world.Resolver, opts)
		if err != nil {
			t.Fatalf("app %d: %v", i, err)
		}
		blockedTotal += arts.BlockedConnections
		if int64(len(arts.Violations)) != arts.BlockedConnections {
			t.Errorf("app %d: %d violations vs %d blocked", i, len(arts.Violations), arts.BlockedConnections)
		}
		// No surviving flow may originate from an AnT-listed library.
		sum, err := attribution.ParseCapture(bytes.NewReader(arts.CaptureBytes),
			nets.DefaultLocalAddr, nets.DefaultCollectorAddr, nets.DefaultCollectorPort)
		if err != nil {
			t.Fatal(err)
		}
		reports, err := xposed.DecodeReports(arts.RawReports)
		if err != nil {
			t.Fatal(err)
		}
		attr := attribution.NewAttributor(nil)
		if _, err := attr.Attribute(sum, reports, app.SHA256); err != nil {
			t.Fatal(err)
		}
		for _, f := range sum.Flows {
			if f.Report == nil {
				continue
			}
			flowsChecked++
			if corpus.HasPrefixInList(f.OriginLibrary, corpus.AnTPrefixes()) {
				t.Errorf("app %d: AnT flow from %s survived the policy", i, f.OriginLibrary)
			}
		}
	}
	if blockedTotal == 0 {
		t.Error("policy blocked nothing across the corpus; AnT traffic should be common")
	}
	if flowsChecked == 0 {
		t.Error("no surviving flows checked")
	}
}
