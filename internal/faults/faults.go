// Package faults provides deterministic, seedable fault injection for the
// synthetic substrate. The paper's 25,000-app campaign loses runs to
// emulator crashes, install failures, and instrumentation hiccups (§IV);
// the real system can only observe those faults, but the synthetic
// substrate can *produce* them on demand, which lets the dispatch layer's
// retry/timeout/quarantine machinery be tested against every failure class
// it claims to survive.
//
// Fault decisions are pure functions of (seed, app index, attempt): two
// injectors with the same configuration produce the same faults in the
// same places regardless of worker interleaving, so a faulty fleet is as
// reproducible as a clean one. Transient faults hit only the first attempt
// — a retried run is byte-identical to one that never faulted — while
// poison apps fault on every attempt and can only be quarantined.
package faults

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"libspector/internal/sim"
)

// ErrInjected marks errors produced by injected faults, so tests and
// operators can separate synthetic failures from genuine bugs with
// errors.Is.
var ErrInjected = errors.New("injected fault")

// Class is one category of run fault the substrate can produce.
type Class int

const (
	// EmulatorAbort crashes the emulator run partway through the monkey
	// event stream — the "emulator crash / app install failure" class.
	EmulatorAbort Class = iota + 1
	// StallRun parks the run indefinitely after some events — a hung
	// emulator only a per-run deadline can reclaim.
	StallRun
	// CaptureTruncate tears the tail off the run's pcap, as a crashed
	// worker leaves behind; offline analysis detects the torn record.
	CaptureTruncate
	// DatagramDrop loses supervisor UDP datagrams on the wire between the
	// emulated device and the collector.
	DatagramDrop
	// HookFault makes the Xposed supervisor hook fail on its first report
	// attempts — the instrumentation-hiccup class.
	HookFault
)

// Crash classes attack campaign durability rather than individual runs:
// they model the process dying or the disk rotting at the worst possible
// moment, and exist to exercise the journal/resume/audit recovery path.
// They live outside AllClasses so run-fault campaigns keep their existing
// deterministic class selection; enable them explicitly via
// Config.Classes or -fault-classes.
const (
	// JournalCrash kills the campaign between the journal's run-completed
	// append and the stream's event emission — the journal says done, the
	// downstream sinks never saw the run.
	JournalCrash Class = iota + 100
	// JournalTear crashes mid-append, leaving a torn final record for
	// recovery to truncate.
	JournalTear
	// ArtifactFlip silently flips one bit of a stored run file after commit —
	// the disk-rot class only an integrity audit can catch.
	ArtifactFlip
)

// AllClasses lists every per-run fault class, in declaration order. Crash
// classes are deliberately excluded; see CrashClasses.
var AllClasses = []Class{EmulatorAbort, StallRun, CaptureTruncate, DatagramDrop, HookFault}

// CrashClasses lists the campaign-durability fault classes.
var CrashClasses = []Class{JournalCrash, JournalTear, ArtifactFlip}

// String names the class as used by -fault-classes flags.
func (c Class) String() string {
	switch c {
	case EmulatorAbort:
		return "emulator-abort"
	case StallRun:
		return "stall-run"
	case CaptureTruncate:
		return "capture-truncate"
	case DatagramDrop:
		return "datagram-drop"
	case HookFault:
		return "hook-fault"
	case JournalCrash:
		return "journal-crash"
	case JournalTear:
		return "journal-tear"
	case ArtifactFlip:
		return "artifact-flip"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ParseClasses parses a comma-separated class list ("emulator-abort,
// stall-run"). An empty string yields nil, which New interprets as all
// classes.
func ParseClasses(list string) ([]Class, error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil
	}
	var out []Class
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		var found bool
		for _, c := range append(append([]Class(nil), AllClasses...), CrashClasses...) {
			if c.String() == name {
				out = append(out, c)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("faults: unknown class %q", name)
		}
	}
	return out, nil
}

// Config parameterizes an Injector.
type Config struct {
	// Seed drives every fault decision; identical seeds produce identical
	// fault schedules.
	Seed uint64
	// Rate is the per-app probability of being faulty, in [0, 1].
	Rate float64
	// PoisonRate is the probability that a faulty app is poison — it
	// faults on every attempt, not just the first — in [0, 1].
	PoisonRate float64
	// Classes restricts injection to these classes; nil or empty enables
	// all of AllClasses.
	Classes []Class
}

// Plan is the fault decision for one attempt at one app. The zero Plan
// means the attempt runs clean.
type Plan struct {
	// Class is the injected fault class (0 = no fault).
	Class Class
	// Poison reports whether the app faults on every attempt.
	Poison bool
	// Param is a deterministic 64-bit magnitude source the hook point
	// derives its class-specific parameter from (abort offset, truncation
	// length, drop stride, ...).
	Param uint64
}

// Faulted reports whether the plan injects anything.
func (p Plan) Faulted() bool { return p.Class != 0 }

// Injector makes deterministic fault decisions for a fleet run.
type Injector struct {
	seed       uint64
	rate       float64
	poisonRate float64
	classes    []Class
}

// New validates the configuration and builds an injector.
func New(cfg Config) (*Injector, error) {
	if cfg.Rate < 0 || cfg.Rate > 1 {
		return nil, fmt.Errorf("faults: rate %v out of [0, 1]", cfg.Rate)
	}
	if cfg.PoisonRate < 0 || cfg.PoisonRate > 1 {
		return nil, fmt.Errorf("faults: poison rate %v out of [0, 1]", cfg.PoisonRate)
	}
	classes := cfg.Classes
	if len(classes) == 0 {
		classes = AllClasses
	}
	for _, c := range classes {
		var known bool
		for _, k := range append(append([]Class(nil), AllClasses...), CrashClasses...) {
			if c == k {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("faults: unknown class %d", int(c))
		}
	}
	return &Injector{
		seed:       cfg.Seed,
		rate:       cfg.Rate,
		poisonRate: cfg.PoisonRate,
		classes:    append([]Class(nil), classes...),
	}, nil
}

// Enabled reports whether the injector can produce the given class.
func (inj *Injector) Enabled(c Class) bool {
	for _, k := range inj.classes {
		if k == c {
			return true
		}
	}
	return false
}

// For returns the fault plan for one attempt (1-based) at one app. The
// per-app decision — faulty or not, which class, poison or transient, the
// magnitude parameter — derives from a private stream split off the seed,
// so it is identical no matter when or how often it is asked. Transient
// faults apply only to attempt 1; poison faults apply to every attempt.
func (inj *Injector) For(appIndex, attempt int) Plan {
	r := sim.NewRand(inj.seed).Split("faults").Split(strconv.Itoa(appIndex))
	if !r.Bool(inj.rate) {
		return Plan{}
	}
	class := inj.classes[r.Intn(len(inj.classes))]
	poison := r.Bool(inj.poisonRate)
	param := r.Uint64()
	if attempt > 1 && !poison {
		return Plan{}
	}
	return Plan{Class: class, Poison: poison, Param: param}
}
