// Package dispatchtest holds the one helper the tests and benchmarks
// outside package dispatch share. Production code folds each run as it
// streams past and keeps none; tests compare whole runs.
package dispatchtest

import (
	"context"
	"sort"

	"libspector/internal/attribution"
	"libspector/internal/dispatch"
	"libspector/internal/nets"
)

// Run streams the source through a fleet and drains it into the sinks,
// as dispatch.Drain does, and also returns every completed run in
// app-index order. On error the Result and runs hold whatever completed.
func Run(source dispatch.AppSource, resolver nets.Resolver, cfg dispatch.Config, sinks ...dispatch.Sink) (*dispatch.Result, []*attribution.RunResult, error) {
	events, err := dispatch.Stream(context.Background(), source, resolver, cfg)
	if err != nil {
		return nil, nil, err
	}
	var idx []int
	byIdx := make(map[int]*attribution.RunResult)
	keep := dispatch.SinkFunc(func(ev dispatch.RunEvent) error {
		if ev.Kind == dispatch.EventRun {
			idx = append(idx, ev.AppIndex)
			byIdx[ev.AppIndex] = ev.Run
		}
		return nil
	})
	res, err := dispatch.Drain(events, append(sinks, keep)...)
	sort.Ints(idx)
	runs := make([]*attribution.RunResult, len(idx))
	for k, i := range idx {
		runs[k] = byIdx[i]
	}
	return res, runs, err
}
