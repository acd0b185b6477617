package report

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"libspector/internal/analysis"
	"libspector/internal/corpus"
)

func TestTableIRendering(t *testing.T) {
	counts := corpus.TableIDomainCounts()
	out := TableI(counts)
	for _, want := range []string{"Table I", "advertisements", "1336", "cdn", "77", "Total", "14140", "(all remaining)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I output missing %q", want)
		}
	}
}

func TestPaperComparisonRendering(t *testing.T) {
	rows := []analysis.TargetComparison{
		{Name: "Fig2 advertisement share", Paper: 0.2828, Measured: 0.279, Band: 0.02},
		{Name: "Fig5 domain ratio mean", Paper: 104, Measured: 60, Band: 0.79},
		{Name: "way off", Paper: 1, Measured: 8, Band: 3},
	}
	out := PaperComparison(rows)
	for _, want := range []string{"Paper vs. measured", "close", "within 2x", "off by"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison output missing %q:\n%s", want, out)
		}
	}
}

func TestCSVExports(t *testing.T) {
	m := &analysis.CategoryMatrix{
		Bytes: map[corpus.AppCategory]map[corpus.LibraryCategory]int64{
			"TOOLS": {corpus.LibAdvertisement: 1000, corpus.LibUtility: 500},
		},
		LegendShare: map[corpus.LibraryCategory]float64{},
		Total:       1500,
	}
	var buf bytes.Buffer
	if err := Fig2CSV(&buf, m); err != nil {
		t.Fatal(err)
	}
	records := parseCSV(t, buf.String())
	if len(records) != 3 || records[0][0] != "app_category" {
		t.Errorf("Fig2 csv = %v", records)
	}

	buf.Reset()
	cdf := []analysis.CDFSeries{{Label: "App: Sent", Values: []float64{10, 20}}}
	if err := Fig4CSV(&buf, cdf); err != nil {
		t.Fatal(err)
	}
	records = parseCSV(t, buf.String())
	if len(records) != 3 || records[2][2] != "1" {
		t.Errorf("Fig4 csv = %v", records)
	}

	buf.Reset()
	ratios := []analysis.RatioSeries{{Label: "Apps", Ratios: []float64{100, 50}}}
	if err := Fig5CSV(&buf, ratios); err != nil {
		t.Fatal(err)
	}
	if records = parseCSV(t, buf.String()); len(records) != 3 {
		t.Errorf("Fig5 csv = %v", records)
	}

	buf.Reset()
	h := &analysis.Heatmap{Bytes: map[corpus.LibraryCategory]map[corpus.DomainCategory]int64{
		corpus.LibAdvertisement: {corpus.DomCDN: 42},
	}}
	if err := Fig9CSV(&buf, h); err != nil {
		t.Fatal(err)
	}
	records = parseCSV(t, buf.String())
	if len(records) != 2 || records[1][2] != "42" {
		t.Errorf("Fig9 csv = %v", records)
	}

	buf.Reset()
	cov := &analysis.CoverageStats{Percents: []float64{1, 9.5, 3}}
	if err := Fig10CSV(&buf, cov); err != nil {
		t.Fatal(err)
	}
	records = parseCSV(t, buf.String())
	if len(records) != 4 || records[1][1] != "9.5" {
		t.Errorf("Fig10 csv = %v", records)
	}
}

func parseCSV(t *testing.T, s string) [][]string {
	t.Helper()
	records, err := csv.NewReader(strings.NewReader(s)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return records
}
