package dispatch

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"testing"

	"libspector/internal/journal"
)

// TestRunMetersTableCoversEveryField makes the journal-vs-registry drift
// structurally impossible: a RunMeters field with no row would be
// journaled as zero and never restored; a row whose series is not a
// canonical name would restore into a series no live site charges.
func TestRunMetersTableCoversEveryField(t *testing.T) {
	var m journal.RunMeters
	v := reflect.ValueOf(&m).Elem()
	rows := make(map[uintptr]int)
	for _, row := range runMeterRows {
		rows[uintptr(reflect.ValueOf(row.field(&m)).Pointer())]++
	}
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if v.Field(i).Kind() != reflect.Int64 {
			t.Errorf("RunMeters.%s is %s: the table (and the additive replay) assume int64 counts", name, v.Field(i).Kind())
			continue
		}
		if n := rows[v.Field(i).Addr().Pointer()]; n != 1 {
			t.Errorf("RunMeters.%s has %d rows in runMeterRows, want exactly 1", name, n)
		}
	}
	if len(runMeterRows) != v.NumField() {
		t.Errorf("runMeterRows has %d rows for %d RunMeters fields", len(runMeterRows), v.NumField())
	}

	// Every series a row names is a string constant of obs/names.go.
	file, err := parser.ParseFile(token.NewFileSet(), "../obs/names.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		if decl, ok := n.(*ast.GenDecl); ok && decl.Tok == token.CONST {
			for _, spec := range decl.Specs {
				for _, val := range spec.(*ast.ValueSpec).Values {
					if lit, ok := val.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if s, err := strconv.Unquote(lit.Value); err == nil {
							names[s] = true
						}
					}
				}
			}
		}
		return true
	})
	seen := make(map[string]bool)
	for _, row := range runMeterRows {
		if !names[row.series] {
			t.Errorf("row series %q is not a constant in obs/names.go", row.series)
		}
		if seen[row.series] {
			t.Errorf("series %q has two rows", row.series)
		}
		seen[row.series] = true
	}
}
