package art

import (
	"fmt"
	"maps"
	"strings"
	"testing"
	"time"

	"libspector/internal/dex"
)

func TestThreadStackOrdering(t *testing.T) {
	var th Thread
	th.Push(Frame{Qualified: "java.util.concurrent.FutureTask.run"})
	th.Push(Frame{Qualified: "android.os.AsyncTask$2.call"})
	th.Push(Frame{Qualified: "com.unity3d.ads.android.cache.b.doInBackground"})
	th.Push(Frame{Qualified: "java.net.Socket.connect"})

	trace := th.GetStackTrace()
	// Java convention (Listing 1): index 0 is the most recent invocation.
	if trace[0].Qualified != "java.net.Socket.connect" {
		t.Errorf("trace[0] = %s", trace[0].Qualified)
	}
	if trace[len(trace)-1].Qualified != "java.util.concurrent.FutureTask.run" {
		t.Errorf("trace[last] = %s", trace[len(trace)-1].Qualified)
	}
	if th.Depth() != 4 {
		t.Errorf("Depth = %d", th.Depth())
	}
	if err := th.Pop(); err != nil {
		t.Fatal(err)
	}
	if th.Depth() != 3 {
		t.Errorf("Depth after pop = %d", th.Depth())
	}
	th.Reset()
	if th.Depth() != 0 {
		t.Error("Reset did not clear the stack")
	}
	if err := th.Pop(); err == nil {
		t.Error("Pop on empty stack should fail")
	}
}

// profiledFile is a dex file of n methods a.B.m0()V … a.B.m<n-1>()V for
// the profiler tests.
func profiledFile(t *testing.T, n int) *dex.File {
	t.Helper()
	d := dex.NewFile(time.Now())
	for i := 0; i < n; i++ {
		if err := d.AddMethod(dex.Method{Class: "a.B", Name: fmt.Sprintf("m%d", i), Return: "V"}); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestProfilerUniqueMode(t *testing.T) {
	p, err := NewProfiler(ProfilerUnique, 0, profiledFile(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		p.OnMethodEntry(0)
		p.OnMethodEntry(1)
	}
	if p.UniqueCount() != 2 {
		t.Errorf("UniqueCount = %d, want 2", p.UniqueCount())
	}
	if p.TotalInvocations() != 2000 {
		t.Errorf("TotalInvocations = %d", p.TotalInvocations())
	}
	if p.DroppedInvocations() != 0 {
		t.Errorf("unique mode dropped %d entries", p.DroppedInvocations())
	}
}

func TestProfilerBoundedModeLosesData(t *testing.T) {
	// Stock ART behaviour (§II-B1): the buffer fills with repeated calls
	// and later first-invocations are lost.
	d := profiledFile(t, 2)
	const hot, cold = 0, 1
	p, err := NewProfiler(ProfilerBounded, 100, d)
	if err != nil {
		t.Fatal(err)
	}
	// 100 repeated calls to one method fill the buffer...
	for i := 0; i < 100; i++ {
		p.OnMethodEntry(hot)
	}
	// ...so this first invocation is dropped.
	p.OnMethodEntry(cold)
	if p.UniqueCount() != 1 {
		t.Errorf("bounded mode recorded %d unique methods, want 1 (data loss)", p.UniqueCount())
	}
	if p.DroppedInvocations() != 1 {
		t.Errorf("DroppedInvocations = %d, want 1", p.DroppedInvocations())
	}

	// The unique-mode modification records both under the same load.
	u, err := NewProfiler(ProfilerUnique, 100, d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		u.OnMethodEntry(hot)
	}
	u.OnMethodEntry(cold)
	if u.UniqueCount() != 2 {
		t.Errorf("unique mode recorded %d methods, want 2", u.UniqueCount())
	}
}

func TestProfilerModeValidation(t *testing.T) {
	d := profiledFile(t, 1)
	if _, err := NewProfiler(ProfilerMode(0), 0, d); err == nil {
		t.Error("zero mode should fail")
	}
	if _, err := NewProfiler(ProfilerMode(99), 0, d); err == nil {
		t.Error("unknown mode should fail")
	}
	if _, err := NewProfiler(ProfilerUnique, 0, nil); err == nil {
		t.Error("nil dex file should fail")
	}
}

// stringProfiler is the profiler as it was when it kept signatures: a
// bounded buffer of every entry and a string-keyed first-invocation set.
// The index-keyed profiler must report exactly what it did.
type stringProfiler struct {
	bounded  bool
	capacity int
	entries  []string
	unique   map[string]struct{}
	dropped  int64
}

func (p *stringProfiler) OnMethodEntry(sig string) {
	if p.bounded {
		if len(p.entries) >= p.capacity {
			p.dropped++
			return
		}
		p.entries = append(p.entries, sig)
	}
	p.unique[sig] = struct{}{}
}

func TestProfilerMatchesStringKeyed(t *testing.T) {
	d := profiledFile(t, 300)
	// A skewed entry sequence: mostly hot methods, a long tail of cold
	// ones, so a bounded buffer fills before the tail is seen.
	var seq []int
	for i := 0; i < 2000; i++ {
		switch {
		case i%7 == 0:
			seq = append(seq, (i*131)%d.MethodCount())
		default:
			seq = append(seq, i%5)
		}
	}
	for _, tc := range []struct {
		mode     ProfilerMode
		capacity int
	}{{ProfilerUnique, 0}, {ProfilerBounded, 100}, {ProfilerBounded, 1000}, {ProfilerBounded, 5000}} {
		t.Run(fmt.Sprintf("mode%d-cap%d", tc.mode, tc.capacity), func(t *testing.T) {
			p, err := NewProfiler(tc.mode, tc.capacity, d)
			if err != nil {
				t.Fatal(err)
			}
			ref := &stringProfiler{bounded: tc.mode == ProfilerBounded, capacity: tc.capacity, unique: map[string]struct{}{}}
			for _, idx := range seq {
				p.OnMethodEntry(idx)
				sig, _ := d.SignatureAt(idx)
				ref.OnMethodEntry(sig)
			}
			if p.DroppedInvocations() != ref.dropped || p.UniqueCount() != len(ref.unique) || p.TotalInvocations() != int64(len(seq)) {
				t.Fatalf("dropped %d, unique %d, total %d; string-keyed: dropped %d, unique %d, total %d",
					p.DroppedInvocations(), p.UniqueCount(), p.TotalInvocations(), ref.dropped, len(ref.unique), len(seq))
			}
			if !maps.Equal(p.UniqueMethods(), ref.unique) {
				t.Error("unique set differs from the string-keyed one")
			}
		})
	}
}

// A repeated entry touches one bit: it allocates nothing, in either mode.
func TestProfilerRepeatEntryAllocatesNothing(t *testing.T) {
	for _, mode := range []ProfilerMode{ProfilerUnique, ProfilerBounded} {
		p, err := NewProfiler(mode, 0, profiledFile(t, 70))
		if err != nil {
			t.Fatal(err)
		}
		p.OnMethodEntry(69)
		if allocs := testing.AllocsPerRun(100, func() { p.OnMethodEntry(69) }); allocs != 0 {
			t.Errorf("mode %d: a repeated entry allocates %.1f objects, want 0", mode, allocs)
		}
	}
}

// buildTestProgram assembles a small two-activity program with one
// network operation.
func buildTestProgram(t *testing.T, runLimit int) (*Program, []dex.Method) {
	t.Helper()
	d := dex.NewFile(time.Now())
	methods := []dex.Method{
		{Class: "com.app.Main", Name: "onCreate", Return: "V"},
		{Class: "com.app.Main", Name: "onClick", Return: "V"},
		{Class: "com.vendor.ads.Loader", Name: "fetchAd", Return: "V"},
		{Class: "com.vendor.ads.cache.b", Name: "doInBackground", Params: []string{"[Ljava/lang/String;"}, Return: "Ljava/lang/Object;"},
		{Class: "com.app.Second", Name: "onCreate", Return: "V"},
	}
	for _, m := range methods {
		if err := d.AddMethod(m); err != nil {
			t.Fatal(err)
		}
	}
	prog := &Program{
		PackageName: "com.app",
		Dex:         d,
		Activities: []Activity{
			{
				Name: "com.app.Main",
				Handlers: []Handler{
					{
						Name:       "onCreate",
						MethodIdxs: []int{0},
						NetOps: []NetOp{{
							ChainIdxs: []int{3, 2}, // doInBackground first (chronologically), fetchAd above
							Context:   ContextAsyncTask,
							Transport: TransportBuiltinOkhttp,
							RunLimit:  runLimit,
							Action: NetworkAction{
								Domain: "ads.example.com", Port: 80,
								HTTPMethod: "GET", Path: "/ad",
								RequestBytes: 200, ResponseBytes: 1000,
							},
						}},
					},
					{Name: "onClick", MethodIdxs: []int{1}},
				},
			},
			{
				Name:     "com.app.Second",
				Handlers: []Handler{{Name: "onCreate", MethodIdxs: []int{4}}},
			},
		},
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	return prog, methods
}

// recordingPerformer captures the stack at each network action.
type recordingPerformer struct {
	stacks  [][]Frame
	actions []NetworkAction
}

func (r *recordingPerformer) Perform(th *Thread, action NetworkAction) error {
	r.stacks = append(r.stacks, th.GetStackTrace())
	r.actions = append(r.actions, action)
	return nil
}

func TestRuntimeSocketStackShape(t *testing.T) {
	prog, methods := buildTestProgram(t, 1)
	profiler, err := NewProfiler(ProfilerUnique, 0, prog.Dex)
	if err != nil {
		t.Fatal(err)
	}
	perf := &recordingPerformer{}
	rt, err := NewRuntime(prog, profiler, perf)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Launch(); err != nil {
		t.Fatal(err)
	}
	if len(perf.stacks) != 1 {
		t.Fatalf("performed %d net ops, want 1", len(perf.stacks))
	}
	stack := perf.stacks[0]
	// Top-first: socket connect on top, AsyncTask context at the bottom,
	// app chain in between — the Listing 1 shape.
	if stack[0].Qualified != "java.net.Socket.connect" {
		t.Errorf("top of stack = %s", stack[0].Qualified)
	}
	bottom := stack[len(stack)-1].Qualified
	if bottom != "java.util.concurrent.FutureTask.run" {
		t.Errorf("bottom of stack = %s", bottom)
	}
	var sawChain0, sawChain1 bool
	var idx0, idx1 int
	for i, f := range stack {
		if f.Qualified == methods[3].QualifiedName() {
			sawChain0, idx0 = true, i
		}
		if f.Qualified == methods[2].QualifiedName() {
			sawChain1, idx1 = true, i
		}
	}
	if !sawChain0 || !sawChain1 {
		t.Fatal("chain frames missing from the socket stack")
	}
	// ChainIdxs are bottom-first: chain[0] (doInBackground) must be below
	// (i.e. later in the top-first list than) chain[1].
	if idx0 <= idx1 {
		t.Errorf("chain order wrong: doInBackground at %d, fetchAd at %d", idx0, idx1)
	}
}

func TestRuntimeRunLimit(t *testing.T) {
	prog, _ := buildTestProgram(t, 2)
	profiler, err := NewProfiler(ProfilerUnique, 0, prog.Dex)
	if err != nil {
		t.Fatal(err)
	}
	perf := &recordingPerformer{}
	rt, err := NewRuntime(prog, profiler, perf)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Launch(); err != nil {
		t.Fatal(err)
	}
	// Re-dispatch the onCreate handler several times; the op fires once
	// more, then the RunLimit of 2 caps it.
	for i := 0; i < 5; i++ {
		if err := rt.DispatchEvent(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if len(perf.actions) != 2 {
		t.Errorf("net op performed %d times, want RunLimit 2", len(perf.actions))
	}
}

func TestRuntimeOnCreateRunsOncePerActivity(t *testing.T) {
	prog, methods := buildTestProgram(t, 1)
	profiler, err := NewProfiler(ProfilerUnique, 0, prog.Dex)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(prog, profiler, &recordingPerformer{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Launch(); err != nil {
		t.Fatal(err)
	}
	// Dispatch to activity 1: its onCreate (method 4) must run first.
	if err := rt.DispatchEvent(1, 0); err != nil {
		t.Fatal(err)
	}
	trace := profiler.UniqueMethods()
	if _, ok := trace[methods[4].TypeSignature()]; !ok {
		t.Error("second activity's onCreate was not recorded")
	}
	// Dispatching handler 1 of activity 0 runs methods[1].
	if err := rt.DispatchEvent(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := profiler.UniqueMethods()[methods[1].TypeSignature()]; !ok {
		t.Error("onClick handler not recorded")
	}
	if rt.HandlerDispatches() == 0 || rt.NetOpsPerformed() != 1 {
		t.Errorf("dispatch counters: %d handlers, %d netops",
			rt.HandlerDispatches(), rt.NetOpsPerformed())
	}
}

// The profiler records method indices in a bitset, so re-firing a handler whose methods were all seen, with no net ops,
// allocates nothing — the monkey's common case.
func TestRepeatDispatchAllocatesNothing(t *testing.T) {
	prog, _ := buildTestProgram(t, 1)
	profiler, err := NewProfiler(ProfilerUnique, 0, prog.Dex)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(prog, profiler, &recordingPerformer{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.DispatchEvent(0, 1); err != nil { // onCreate, then onClick
		t.Fatal(err)
	}
	var derr error
	allocs := testing.AllocsPerRun(100, func() { derr = rt.DispatchEvent(0, 1) })
	if derr != nil {
		t.Fatal(derr)
	}
	if allocs != 0 {
		t.Errorf("repeat DispatchEvent allocates %.1f objects, want 0", allocs)
	}
}

func TestRuntimeIndexModulo(t *testing.T) {
	prog, _ := buildTestProgram(t, 1)
	profiler, err := NewProfiler(ProfilerUnique, 0, prog.Dex)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(prog, profiler, &recordingPerformer{})
	if err != nil {
		t.Fatal(err)
	}
	// Large and negative indices reduce into range instead of panicking.
	if err := rt.DispatchEvent(1_000_003, 999); err != nil {
		t.Fatal(err)
	}
	if err := rt.DispatchEvent(-7, -3); err != nil {
		t.Fatal(err)
	}
}

func TestProgramValidation(t *testing.T) {
	d := dex.NewFile(time.Now())
	if err := d.AddMethod(dex.Method{Class: "a.B", Name: "f", Return: "V"}); err != nil {
		t.Fatal(err)
	}
	valid := Activity{Name: "a.B", Handlers: []Handler{{Name: "h"}}}
	cases := []struct {
		name string
		prog Program
	}{
		{"empty package", Program{Dex: d, Activities: []Activity{valid}}},
		{"nil dex", Program{PackageName: "a", Activities: []Activity{valid}}},
		{"no activities", Program{PackageName: "a", Dex: d}},
		{"activity without handlers", Program{PackageName: "a", Dex: d, Activities: []Activity{{Name: "x"}}}},
		{"method index out of range", Program{PackageName: "a", Dex: d, Activities: []Activity{
			{Name: "x", Handlers: []Handler{{Name: "h", MethodIdxs: []int{5}}}},
		}}},
		{"chain index out of range", Program{PackageName: "a", Dex: d, Activities: []Activity{
			{Name: "x", Handlers: []Handler{{Name: "h", NetOps: []NetOp{{
				ChainIdxs: []int{9},
				Action:    NetworkAction{Domain: "d", Port: 80},
			}}}}},
		}}},
		{"netop without domain", Program{PackageName: "a", Dex: d, Activities: []Activity{
			{Name: "x", Handlers: []Handler{{Name: "h", NetOps: []NetOp{{
				Action: NetworkAction{Port: 80},
			}}}}},
		}}},
		{"netop port zero", Program{PackageName: "a", Dex: d, Activities: []Activity{
			{Name: "x", Handlers: []Handler{{Name: "h", NetOps: []NetOp{{
				Action: NetworkAction{Domain: "d"},
			}}}}},
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.prog.Validate(); err == nil {
				t.Errorf("%s should fail validation", tc.name)
			}
		})
	}
}

func TestContextAndTransportFrames(t *testing.T) {
	for _, k := range []ContextKind{ContextMainThread, ContextAsyncTask, ContextWorkerThread, ContextExecutorPool, ContextKind(99)} {
		frames := contextFrames(k)
		if len(frames) == 0 {
			t.Errorf("context %d yields no frames", k)
		}
	}
	for _, k := range []TransportKind{TransportBuiltinOkhttp, TransportJavaNet, TransportBundledOkhttp3, TransportVolley, TransportKind(99)} {
		frames := transportFrames(k)
		if len(frames) == 0 {
			t.Errorf("transport %d yields no frames", k)
		}
		// Every transport chain ends at the socket connect call.
		if top := frames[len(frames)-1].Qualified; top != "java.net.Socket.connect" {
			t.Errorf("transport %d ends with %s", k, top)
		}
	}
	// The builtin okhttp chain reproduces the Listing 1 fork frames.
	joined := ""
	for _, f := range transportFrames(TransportBuiltinOkhttp) {
		joined += f.Qualified + "\n"
	}
	if !strings.Contains(joined, "com.android.okhttp.internal.Platform.connectSocket") {
		t.Error("builtin okhttp transport missing the Listing 1 platform frame")
	}
}

func TestRuntimeConstructorValidation(t *testing.T) {
	prog, _ := buildTestProgram(t, 1)
	profiler, err := NewProfiler(ProfilerUnique, 0, prog.Dex)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRuntime(prog, nil, &recordingPerformer{}); err == nil {
		t.Error("nil profiler should fail")
	}
	other, err := NewProfiler(ProfilerUnique, 0, profiledFile(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRuntime(prog, other, &recordingPerformer{}); err == nil {
		t.Error("a profiler of another dex file should fail")
	}
	if _, err := NewRuntime(prog, profiler, nil); err == nil {
		t.Error("nil performer should fail")
	}
	bad := &Program{PackageName: "x"}
	if _, err := NewRuntime(bad, profiler, &recordingPerformer{}); err == nil {
		t.Error("invalid program should fail")
	}
}

// failingPerformer simulates network failures.
type failingPerformer struct{}

func (failingPerformer) Perform(*Thread, NetworkAction) error {
	return fmt.Errorf("connection refused")
}

func TestRuntimePropagatesNetworkErrors(t *testing.T) {
	prog, _ := buildTestProgram(t, 1)
	profiler, err := NewProfiler(ProfilerUnique, 0, prog.Dex)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(prog, profiler, failingPerformer{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Launch(); err == nil {
		t.Error("network failure should propagate from Launch")
	}
}
