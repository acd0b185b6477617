package analysis

import (
	"encoding/json"
	"fmt"
	"io"

	"libspector/internal/corpus"
)

// Summary bundles every figure/table of the evaluation into one
// serializable document, for downstream tooling (dashboards, plotting,
// regression tracking across corpus versions).
type Summary struct {
	// Totals is the §IV-A headline block.
	Totals Totals `json:"totals"`

	// Fig2LegendShare is each library category's share of total transfer.
	Fig2LegendShare map[corpus.LibraryCategory]float64 `json:"fig2_legend_share"`
	// Fig2AppCategoryBytes is the per-app-category transfer matrix.
	Fig2AppCategoryBytes map[corpus.AppCategory]map[corpus.LibraryCategory]int64 `json:"fig2_app_category_bytes"`

	// Fig3TopOrigins / Fig3TopTwoLevel are the library rankings.
	Fig3TopOrigins  []RankedLibrary `json:"fig3_top_origins"`
	Fig3TopTwoLevel []RankedLibrary `json:"fig3_top_two_level"`

	// Fig5RatioMeans maps "apps"/"libs"/"dns" to the mean received/sent
	// ratio.
	Fig5RatioMeans map[string]float64 `json:"fig5_ratio_means"`

	// Fig6 prevalence numbers.
	Fig6AnTOnlyFrac  float64 `json:"fig6_ant_only_frac"`
	Fig6SomeAnTFrac  float64 `json:"fig6_some_ant_frac"`
	Fig6AnTFreeFrac  float64 `json:"fig6_ant_free_frac"`
	Fig6AnTFlowRatio float64 `json:"fig6_ant_flow_ratio"`
	Fig6CLFlowRatio  float64 `json:"fig6_cl_flow_ratio"`

	// Fig7 per-category averages (bytes).
	Fig7PerLibrary map[corpus.LibraryCategory]float64 `json:"fig7_per_library"`
	Fig7PerDomain  map[corpus.DomainCategory]float64  `json:"fig7_per_domain"`

	// Fig8 per-app-category averages (bytes per app).
	Fig8PerAppCategory map[corpus.AppCategory]float64 `json:"fig8_per_app_category"`

	// Fig9 heatmap (bytes).
	Fig9Heatmap map[corpus.LibraryCategory]map[corpus.DomainCategory]int64 `json:"fig9_heatmap"`

	// Fig10 coverage.
	Fig10CoverageMean  float64 `json:"fig10_coverage_mean"`
	Fig10MeanMethods   float64 `json:"fig10_mean_methods"`
	Fig10AppsMeasured  int     `json:"fig10_apps_measured"`
	Fig10FracAboveMean float64 `json:"fig10_frac_above_mean"`

	// HalfTraffic concentration counts.
	HalfTraffic HalfTrafficCounts `json:"half_traffic"`
}

// WriteJSON serializes the summary as indented JSON.
func (s *Summary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("analysis: encoding summary: %w", err)
	}
	return nil
}

// ReadSummary parses a summary document.
func ReadSummary(r io.Reader) (*Summary, error) {
	var s Summary
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("analysis: decoding summary: %w", err)
	}
	return &s, nil
}
