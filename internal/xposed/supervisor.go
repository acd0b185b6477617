package xposed

import (
	"fmt"

	"libspector/internal/art"
	"libspector/internal/dex"
	"libspector/internal/faults"
	"libspector/internal/nets"
	"libspector/internal/obs"
)

// Module is an Xposed module: it receives the framework's hook callbacks.
// The framework only exposes the hooks Libspector needs — the post hook on
// socket connect.
type Module interface {
	// Name identifies the module.
	Name() string
	// OnSocketConnected fires after a connection is established (post
	// hook), with the live stack trace captured via getStackTrace.
	OnSocketConnected(conn *nets.Conn, stackTrace []art.Frame) error
}

// Framework models the Xposed framework's hooking layer: it binds modules
// to the runtime's socket/connect call sites.
type Framework struct {
	modules []Module
	thread  *art.Thread
	// hookErrs collects module failures; hooks must never break the app.
	hookErrs []error
	meters   *obs.Meters
}

// NewFramework creates an empty framework bound to the runtime thread whose
// stacks the modules observe.
func NewFramework(thread *art.Thread) (*Framework, error) {
	if thread == nil {
		return nil, fmt.Errorf("xposed: framework needs a runtime thread")
	}
	return &Framework{thread: thread}, nil
}

// SetMeters routes hook-error counts into the run's meter cells, which
// their owner flushes at run completion, so hooks never touch shared
// atomics. Call before Bind; nil disables the count.
func (f *Framework) SetMeters(m *obs.Meters) { f.meters = m }

// Register installs a module.
func (f *Framework) Register(m Module) {
	f.modules = append(f.modules, m)
}

// Bind attaches the framework's connect post hook to the network stack.
func (f *Framework) Bind(stack *nets.Stack) {
	stack.OnConnect(func(conn *nets.Conn) {
		trace := f.thread.GetStackTrace()
		for _, m := range f.modules {
			if err := m.OnSocketConnected(conn, trace); err != nil {
				// A module failure must not break the app's connection;
				// record it for the experiment log instead.
				f.hookErrs = append(f.hookErrs, fmt.Errorf("xposed: module %s: %w", m.Name(), err))
				f.meters.Counter(obs.MXposedHookErrors).Inc()
			}
		}
	})
}

// HookErrors returns module failures observed so far.
func (f *Framework) HookErrors() []error {
	out := make([]error, len(f.hookErrs))
	copy(out, f.hookErrs)
	return out
}

// Supervisor is the custom Socket Supervisor module (§II-A1, §II-B2): on
// every socket connect it captures the active stack trace, translates each
// frame to its method type signature using the parsed dex files of the
// app's apk, prepends the connection parameters, and ships one UDP report
// to the data-collection server.
type Supervisor struct {
	apkSHA256  string
	translator *dex.SignatureTranslator
	stack      *nets.Stack
	meters     *obs.Meters

	reportsSent int64
	// failFirst injects hook faults (internal/faults hook point): the
	// first failFirst report attempts error out before encoding, the way a
	// flaky instrumentation layer fails. attempted counts every attempt.
	failFirst int
	attempted int64
}

var _ Module = (*Supervisor)(nil)

// NewSupervisor creates the supervisor module for one app under analysis.
func NewSupervisor(apkSHA256 string, dexFile *dex.File, stack *nets.Stack) (*Supervisor, error) {
	if len(apkSHA256) != 64 {
		return nil, fmt.Errorf("xposed: apk sha256 %q is not 64 hex chars", apkSHA256)
	}
	if dexFile == nil {
		return nil, fmt.Errorf("xposed: supervisor needs the app dex file")
	}
	if stack == nil {
		return nil, fmt.Errorf("xposed: supervisor needs the network stack")
	}
	return &Supervisor{
		apkSHA256:  apkSHA256,
		translator: dex.NewSignatureTranslator(dexFile),
		stack:      stack,
	}, nil
}

// Name implements Module.
func (s *Supervisor) Name() string { return "libspector-socket-supervisor" }

// ReportsSent reports how many UDP reports have been emitted.
func (s *Supervisor) ReportsSent() int64 { return s.reportsSent }

// SetMeters routes the sent-report count into the run's meter cells, so
// the per-report path never touches shared atomics. Nil disables the
// count.
func (s *Supervisor) SetMeters(m *obs.Meters) { s.meters = m }

// FailFirstReports injects supervisor hook faults: the first n report
// attempts fail instead of sending. The framework records each failure as
// a hook error without breaking the app's connection.
func (s *Supervisor) FailFirstReports(n int) { s.failFirst = n }

// OnSocketConnected implements Module: build and send the report.
func (s *Supervisor) OnSocketConnected(conn *nets.Conn, stackTrace []art.Frame) error {
	s.attempted++
	if s.failFirst > 0 && s.attempted <= int64(s.failFirst) {
		return fmt.Errorf("xposed: supervisor hook fault on report %d: %w", s.attempted, faults.ErrInjected)
	}
	if len(stackTrace) == 0 {
		return fmt.Errorf("xposed: connect hook fired with empty stack")
	}
	translated := make([]string, len(stackTrace))
	for i, f := range stackTrace {
		// Frames inside the app's dex translate to full type signatures;
		// framework frames (okhttp fork, AsyncTask, …) keep their dotted
		// qualified names — exactly what a dex-based translation can do.
		if sig, ok := s.translator.Translate(f.Qualified, f.Arity); ok {
			translated[i] = sig
		} else {
			translated[i] = f.Qualified
		}
	}
	report := &Report{
		APKSHA256:   s.apkSHA256,
		Tuple:       conn.Tuple(),
		ConnectedAt: s.stack.Clock().Now(),
		StackTrace:  translated,
	}
	payload, err := report.Encode()
	if err != nil {
		return fmt.Errorf("xposed: encoding report for %s: %w", conn.Tuple(), err)
	}
	if err := s.stack.SendSupervisorReport(payload); err != nil {
		return fmt.Errorf("xposed: sending report for %s: %w", conn.Tuple(), err)
	}
	s.reportsSent++
	s.meters.Counter(obs.MXposedReports).Inc()
	return nil
}
