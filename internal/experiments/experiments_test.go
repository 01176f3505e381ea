package experiments

import (
	"strings"
	"testing"
)

func TestResultFormat(t *testing.T) {
	r := Result{
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

func TestScaleStrings(t *testing.T) {
	if Small.String() != "small" || Medium.String() != "medium" || Large.String() != "large" {
		t.Fatal("scale names")
	}
}

func TestE1Campaign(t *testing.T) {
	r := E1Campaign(100)
	if len(r.Rows) < 4 {
		t.Fatalf("campaign rows: %d", len(r.Rows))
	}
	// Full-scale particle-steps: 1e12 × 100.
	if r.Rows[0][4] != 1e14 {
		t.Fatalf("full-scale particle-steps = %g", r.Rows[0][4])
	}
}

func TestE2InnerLoop(t *testing.T) {
	r, err := E2InnerLoop(8, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	row := r.Rows[0]
	if row[2] <= 0 { // Mpart/s
		t.Fatalf("non-positive particle rate: %v", row)
	}
	if row[4] <= 0 { // Gflop/s
		t.Fatalf("non-positive flop rate: %v", row)
	}
}

func TestE3KernelBreakdown(t *testing.T) {
	r, err := E3KernelBreakdown(8, 8, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, row := range r.Rows {
		sum += row[1]
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("kernel shares sum to %g", sum)
	}
	if !strings.Contains(r.Text, "0.766") {
		t.Fatal("missing paper comparison")
	}
}

func TestE4E5Scaling(t *testing.T) {
	r, err := E4WeakScaling([]int{1, 2}, 8, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 || r.Rows[0][3] != 1 {
		t.Fatalf("weak scaling rows: %v", r.Rows)
	}
	r, err = E5StrongScaling([]int{1, 2}, 16, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 || r.Rows[1][2] <= 0 {
		t.Fatalf("strong scaling rows: %v", r.Rows)
	}
}

func TestE6RoadrunnerModel(t *testing.T) {
	r := E6RoadrunnerModel()
	last := r.Rows[len(r.Rows)-1]
	if last[0] != 3060 {
		t.Fatal("missing full-machine row")
	}
	// Headline numbers.
	if last[2] < 0.487 || last[2] > 0.489 {
		t.Fatalf("inner PF = %g", last[2])
	}
	if last[3] < 0.373 || last[3] > 0.375 {
		t.Fatalf("sustained PF = %g", last[3])
	}
}

func TestE10Conservation(t *testing.T) {
	r, err := E10Conservation(8, 8, 40)
	if err != nil {
		t.Fatal(err)
	}
	row := r.Rows[0]
	if row[1] > 0.05 {
		t.Fatalf("energy drift %g too large even for a smoke test", row[1])
	}
	if row[4] > 1e-4 {
		t.Fatalf("divB %g", row[4])
	}
}

func TestAblations(t *testing.T) {
	r, err := AblationSort(8, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0] <= 0 || r.Rows[0][1] <= 0 {
		t.Fatalf("sort ablation rates: %v", r.Rows)
	}
}

// The LPI physics experiments are exercised at tiny scale here (their
// full versions are the benchmark targets).
func TestE7ReflectivitySmokes(t *testing.T) {
	if testing.Short() {
		t.Skip("LPI run in -short mode")
	}
	r, err := E7Reflectivity([]float64{0.04}, Small)
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
	r, err := DispersionDiagram(256, 512)
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

func TestE7Reflectivity3DSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("3-D LPI run in -short mode")
	}
	r, err := E7Reflectivity3D(0.05, 4)
	if err != nil {
		t.Fatal(err)
	}
	row := r.Rows[0]
	if row[2] <= 0 || row[3] < 0 || row[3] > 1 {
		t.Fatalf("3-D reflectivity row: %v", row)
	}
}
