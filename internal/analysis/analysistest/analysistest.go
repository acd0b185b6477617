// Package analysistest holds the one helper the tests and benchmarks
// outside package analysis share. Production code feeds a
// DatasetBuilder from a stream; tests hold a finished slice of runs.
package analysistest

import (
	"libspector/internal/analysis"
	"libspector/internal/attribution"
	"libspector/internal/libradar"
)

// BuildDataset folds runs through a DatasetBuilder, app index = slice
// position, and finishes it.
func BuildDataset(runs []*attribution.RunResult, detector *libradar.Detector, domains analysis.DomainCategorizer) (*analysis.Dataset, error) {
	b, err := analysis.NewDatasetBuilder(domains)
	if err != nil {
		return nil, err
	}
	for i, run := range runs {
		if err := b.Observe(i, run); err != nil {
			return nil, err
		}
	}
	return b.Finish(detector)
}
