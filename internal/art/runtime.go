package art

import (
	"fmt"

	"libspector/internal/dex"
)

// NetworkPerformer executes a network action on behalf of the runtime. The
// emulator wires this to the simulated network stack; the runtime
// guarantees the thread's call stack reflects the socket-creating chain
// for the whole duration of Perform, so connect observers (the Socket
// Supervisor) see the stack of Listing 1.
type NetworkPerformer interface {
	Perform(thread *Thread, action NetworkAction) error
}

// Runtime executes a Program: it dispatches handlers, maintains the call
// stack, feeds the profiler, and delegates network actions.
type Runtime struct {
	program  *Program
	profiler *Profiler
	net      NetworkPerformer
	thread   Thread

	// started tracks which activities have run their onCreate handler.
	started []bool
	// opRuns counts executions per net op for RunLimit enforcement, keyed
	// by (activity, handler, op) indices.
	opRuns map[[3]int]int

	handlerDispatches int64
	netOpsPerformed   int64
}

// NewRuntime loads a validated program.
func NewRuntime(program *Program, profiler *Profiler, net NetworkPerformer) (*Runtime, error) {
	if err := program.Validate(); err != nil {
		return nil, fmt.Errorf("art: loading program: %w", err)
	}
	if profiler == nil {
		return nil, fmt.Errorf("art: runtime needs a profiler")
	}
	if profiler.file != program.Dex {
		return nil, fmt.Errorf("art: profiler observes another dex file than the program's")
	}
	if net == nil {
		return nil, fmt.Errorf("art: runtime needs a network performer")
	}
	return &Runtime{
		program:  program,
		profiler: profiler,
		net:      net,
		started:  make([]bool, len(program.Activities)),
		opRuns:   make(map[[3]int]int),
	}, nil
}

// Program returns the loaded program.
func (rt *Runtime) Program() *Program { return rt.program }

// Profiler returns the attached Method Monitor profiler.
func (rt *Runtime) Profiler() *Profiler { return rt.profiler }

// Thread exposes the runtime thread, the getStackTrace source the Socket
// Supervisor queries from its connect hook.
func (rt *Runtime) Thread() *Thread { return &rt.thread }

// HandlerDispatches reports how many handlers have fired.
func (rt *Runtime) HandlerDispatches() int64 { return rt.handlerDispatches }

// NetOpsPerformed reports how many network actions have executed.
func (rt *Runtime) NetOpsPerformed() int64 { return rt.netOpsPerformed }

// Launch starts the app: activity 0's onCreate handler (Handlers[0]) runs,
// which is where AnT library initialization traffic happens (§IV-C: the
// startup activities often include AnT library loading that uses the
// network).
func (rt *Runtime) Launch() error {
	return rt.DispatchEvent(0, 0)
}

// DispatchEvent fires handler handlerIdx of activity activityIdx. Indices
// are reduced modulo the respective lengths, so any event source (the
// monkey) can map raw event coordinates onto handlers. The first dispatch
// to a not-yet-started activity runs its onCreate handler first.
func (rt *Runtime) DispatchEvent(activityIdx, handlerIdx int) error {
	if len(rt.program.Activities) == 0 {
		return fmt.Errorf("art: program has no activities")
	}
	ai := nonNegMod(activityIdx, len(rt.program.Activities))
	act := &rt.program.Activities[ai]
	if !rt.started[ai] {
		rt.started[ai] = true
		if err := rt.runHandler(ai, 0); err != nil {
			return err
		}
		// The triggering event still fires its own handler below unless it
		// was the onCreate dispatch itself.
		if nonNegMod(handlerIdx, len(act.Handlers)) == 0 {
			return nil
		}
	}
	return rt.runHandler(ai, nonNegMod(handlerIdx, len(act.Handlers)))
}

func (rt *Runtime) runHandler(ai, hi int) error {
	act := &rt.program.Activities[ai]
	h := &act.Handlers[hi]
	rt.handlerDispatches++

	// Record every method the handler invokes. Repeated dispatches
	// re-record; the profiler mode decides what is kept (§II-B1).
	for _, idx := range h.MethodIdxs {
		if _, err := rt.program.Dex.SignatureAt(idx); err != nil {
			return fmt.Errorf("art: handler %s/%s: %w", act.Name, h.Name, err)
		}
		rt.profiler.OnMethodEntry(idx)
	}

	for oi := range h.NetOps {
		op := &h.NetOps[oi]
		key := [3]int{ai, hi, oi}
		if op.RunLimit > 0 && rt.opRuns[key] >= op.RunLimit {
			continue
		}
		rt.opRuns[key]++
		if err := rt.runNetOp(op); err != nil {
			return fmt.Errorf("art: handler %s/%s netop %d: %w", act.Name, h.Name, oi, err)
		}
	}
	return nil
}

// runNetOp builds the socket-creating call stack (context frames, then the
// app-level chain, then transport frames) and invokes the network
// performer while that stack is live.
func (rt *Runtime) runNetOp(op *NetOp) error {
	rt.thread.Reset()
	pushed := 0
	defer func() {
		for ; pushed > 0; pushed-- {
			// Pop cannot fail here: we pushed exactly `pushed` frames.
			_ = rt.thread.Pop()
		}
	}()

	for _, f := range contextFrames(op.Context) {
		rt.thread.Push(f)
		pushed++
	}
	for _, idx := range op.ChainIdxs {
		m, err := rt.program.Dex.MethodAt(idx)
		if err != nil {
			return err
		}
		rt.profiler.OnMethodEntry(idx)
		rt.thread.Push(frameForMethod(m))
		pushed++
	}
	for _, f := range transportFrames(op.Transport) {
		rt.thread.Push(f)
		pushed++
	}

	rt.netOpsPerformed++
	if err := rt.net.Perform(&rt.thread, op.Action); err != nil {
		return fmt.Errorf("art: network action to %s: %w", op.Action.Domain, err)
	}
	return nil
}

// frameForMethod converts a dex method to its stack-frame form.
func frameForMethod(m dex.Method) Frame {
	return Frame{Qualified: m.QualifiedName(), Arity: len(m.Params)}
}

// nonNegMod reduces v modulo n into [0, n).
func nonNegMod(v, n int) int {
	m := v % n
	if m < 0 {
		m += n
	}
	return m
}
