package analysis

import (
	"fmt"

	"libspector/internal/attribution"
	"libspector/internal/dispatch"
	"libspector/internal/libradar"
)

// Accumulator folds streamed run results incrementally into the dataset
// aggregates, so a fleet of any size can be analyzed with peak memory
// proportional to the number of distinct apps, origin-libraries, and
// domains — O(aggregates) — instead of retaining every run and flow record
// (O(corpus)). Every campaign folds through it: a whole-corpus run
// finishes it, a shard seals it into a Partial, and artifact reanalysis
// feeds it the reanalyzed runs.
//
// It is a thin shell over the columnar core, which keys its per-origin
// aggregates by origin symbol during the fold and resolves each symbol's
// LibRadar category once, in Finish, from the detector's database. Domain
// categories (vtclient) and the hostname baseline's verdicts are
// deterministic per domain, so they are resolved once per domain symbol
// at intern time.
//
// Accumulator is not safe for concurrent use; dispatch sinks are invoked
// sequentially from the consuming goroutine, which is exactly this model.
type Accumulator struct {
	core   *core
	sealed bool
}

// NewAccumulator builds an empty accumulator resolving domain categories
// through the given service.
func NewAccumulator(domains DomainCategorizer) (*Accumulator, error) {
	c, err := newCore(domains)
	if err != nil {
		return nil, err
	}
	return &Accumulator{core: c}, nil
}

// Consume implements dispatch.Sink: completed runs are folded in as they
// stream past; skips, failures, and the summary need no aggregation here.
func (a *Accumulator) Consume(ev dispatch.RunEvent) error {
	if ev.Kind != dispatch.EventRun || ev.Run == nil {
		return nil
	}
	return a.Observe(ev.AppIndex, ev.Run)
}

// Observe folds one run. The app index orders the Fig10 coverage series
// exactly as the batch path does.
func (a *Accumulator) Observe(appIndex int, run *attribution.RunResult) error {
	if a.sealed {
		return fmt.Errorf("analysis: accumulator already sealed")
	}
	return a.core.observe(appIndex, run)
}

// Finish resolves the deferred library categories through the detector
// and freezes the aggregates. The accumulator rejects further
// observations afterwards.
func (a *Accumulator) Finish(detector *libradar.Detector) (*Aggregates, error) {
	if a.sealed {
		return nil, fmt.Errorf("analysis: accumulator already sealed; finish the partial instead")
	}
	return a.core.finish(detector)
}
