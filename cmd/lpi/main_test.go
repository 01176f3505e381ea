package main

import (
	"strings"
	"testing"
)

func TestResultFormat(t *testing.T) {
	r := result{
		Name:    "demo",
		Headers: []string{"a", "b"},
		Rows:    [][]float64{{1, 2}},
		Text:    "note",
	}
	out := r.Format()
	for _, want := range []string{"demo", "a", "b", "1", "2", "note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
}

// The LPI study runs at the small tier here; the command's defaults run
// the full sweep.
func TestE7ReflectivitySmokes(t *testing.T) {
	if testing.Short() {
		t.Skip("LPI run in -short mode")
	}
	r, err := e7Reflectivity([]float64{0.04}, "scaled-small")
	if err != nil {
		t.Fatal(err)
	}
	row := r.Rows[0]
	if row[2] <= 0 || row[2] > 1 {
		t.Fatalf("R_mean = %g outside (0,1]", row[2])
	}
	if row[3] < row[2] {
		t.Fatalf("burst peak below mean: %v", row)
	}
	if row[4] < row[5] {
		t.Fatalf("linear prediction below floor: %v", row)
	}
}

func TestDispersionDiagram(t *testing.T) {
	r, err := dispersionDiagram(256, 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows: %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row[2] <= 0 {
			t.Fatalf("no ridge found: %v", row)
		}
		if row[4] > 12 { // percent error at reduced statistics
			t.Fatalf("branch frequency off by %g%%: %v", row[4], row)
		}
	}
}
