package balance

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func checkValid(t *testing.T, cuts []int, parts, n int) {
	t.Helper()
	if len(cuts) != parts+1 {
		t.Fatalf("cuts = %v: want %d entries", cuts, parts+1)
	}
	if cuts[0] != 0 || cuts[parts] != n {
		t.Fatalf("cuts = %v: want span [0,%d]", cuts, n)
	}
	for i := 0; i < parts; i++ {
		if cuts[i+1] <= cuts[i] {
			t.Fatalf("cuts = %v: slab %d empty", cuts, i)
		}
	}
}

// idealCrossing returns the real-valued x in [lo,hi] where the
// linearly interpolated cumulative weight reaches target.
func idealCrossing(prefix []float64, lo, hi int, target float64) float64 {
	for c := lo; c < hi; c++ {
		if prefix[c+1] >= target {
			w := prefix[c+1] - prefix[c]
			if w <= 0 {
				return float64(c)
			}
			return float64(c) + (target-prefix[c])/w
		}
	}
	return float64(hi)
}

// checkNode walks the recursion tree that produced cuts (recoverable,
// since the split part index p1 = p/2 is deterministic) and asserts
// each chosen cut is within one cell of the real-valued ideal weighted
// split, except where the one-cell-per-slab bound clamps it.
func checkNode(t *testing.T, prefix, weights []float64, cuts []int, part, p, lo, hi int) {
	t.Helper()
	if p == 1 {
		return
	}
	p1 := p / 2
	c := cuts[part+p1]
	total := prefix[hi] - prefix[lo]
	target := prefix[lo] + total*float64(p1)/float64(p)
	cmin, cmax := lo+p1, hi-(p-p1)
	switch {
	case c == cmin || c == cmax:
		// Clamped by the min-width bound, or the ideal sits right at
		// the boundary; either way the choice must still be the best
		// legal one, which the minimality check below covers.
	default:
		x := idealCrossing(prefix, lo, hi, target)
		if math.Abs(float64(c)-x) > 1 {
			t.Fatalf("node [%d,%d) p=%d: cut %d is %.3f cells from ideal %.3f",
				lo, hi, p, c, math.Abs(float64(c)-x), x)
		}
	}
	// The chosen cut must minimize the prefix deviation over all legal
	// cuts (ties toward the smaller index).
	bestErr := math.Abs(prefix[c] - target)
	for cc := cmin; cc <= cmax; cc++ {
		e := math.Abs(prefix[cc] - target)
		if e < bestErr || (e == bestErr && cc < c) {
			t.Fatalf("node [%d,%d) p=%d: cut %d (err %.6g) beaten by %d (err %.6g)",
				lo, hi, p, c, bestErr, cc, e)
		}
	}
	checkNode(t, prefix, weights, cuts, part, p1, lo, c)
	checkNode(t, prefix, weights, cuts, part+p1, p-p1, c, hi)
}

func TestBisectCutsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		parts := 2 + rng.Intn(7)
		n := parts + rng.Intn(120)
		weights := make([]float64, n)
		switch trial % 4 {
		case 0: // uniform
			for i := range weights {
				weights[i] = 1
			}
		case 1: // random
			for i := range weights {
				weights[i] = rng.Float64() * 10
			}
		case 2: // spiky: most weight in a few cells
			for i := range weights {
				weights[i] = 0.01
			}
			for k := 0; k < 1+rng.Intn(3); k++ {
				weights[rng.Intn(n)] += 100 * rng.Float64()
			}
		case 3: // gradient
			for i := range weights {
				weights[i] = float64(i + 1)
			}
		}
		cuts := BisectCuts(weights, parts)
		checkValid(t, cuts, parts, n)
		prefix := make([]float64, n+1)
		for i, w := range weights {
			prefix[i+1] = prefix[i] + w
		}
		checkNode(t, prefix, weights, cuts, 0, parts, 0, n)
	}
}

func TestBisectCutsUniformExact(t *testing.T) {
	// Evenly divisible uniform weights must reproduce the uniform
	// layout exactly.
	for _, tc := range []struct{ n, p int }{{64, 4}, {32, 8}, {12, 3}, {100, 4}} {
		weights := make([]float64, tc.n)
		for i := range weights {
			weights[i] = 1
		}
		cuts := BisectCuts(weights, tc.p)
		for i := 0; i <= tc.p; i++ {
			if cuts[i] != i*tc.n/tc.p {
				t.Fatalf("uniform %d/%d: cuts = %v, want even split", tc.n, tc.p, cuts)
			}
		}
	}
}

func TestBisectCutsDegenerate(t *testing.T) {
	// All weight in one cell: layout stays valid, and the slab owning
	// the hot cell carries all the weight (unavoidable).
	for _, hot := range []int{0, 7, 15} {
		weights := make([]float64, 16)
		weights[hot] = 1e6
		cuts := BisectCuts(weights, 4)
		checkValid(t, cuts, 4, 16)
		if r := Imbalance(weights, cuts); r != 4 {
			t.Fatalf("hot cell %d: imbalance %v, want 4 (one slab owns everything)", hot, r)
		}
	}
	// All-zero weights (empty ranks): still a valid layout.
	cuts := BisectCuts(make([]float64, 9), 3)
	checkValid(t, cuts, 3, 9)
	if r := Imbalance(make([]float64, 9), cuts); r != 1 {
		t.Fatalf("zero weights: imbalance %v, want 1", r)
	}
	// Exactly one cell per slab.
	cuts = BisectCuts([]float64{5, 1, 1, 9}, 4)
	checkValid(t, cuts, 4, 4)
	// Weight concentrated so ideal split would empty a rank — the
	// min-width bound must hold anyway.
	weights := []float64{100, 100, 0, 0, 0, 0, 0, 0}
	cuts = BisectCuts(weights, 4)
	checkValid(t, cuts, 4, 8)
}

func TestImbalanceAndParseMode(t *testing.T) {
	w := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	if r := Imbalance(w, []int{0, 2, 4, 6, 8}); r != 1 {
		t.Fatalf("uniform imbalance = %v, want 1", r)
	}
	if r := Imbalance(w, []int{0, 4, 5, 6, 8}); r != 2 {
		t.Fatalf("skewed imbalance = %v, want 2 (max 4 / mean 2)", r)
	}
	// "checkpoint" named the removed swap-and-rebuild mode: it must fail
	// like any unknown value, naming the value and the accepted set.
	for _, s := range []string{"bogus", "checkpoint"} {
		_, err := ParseMode(s)
		if err == nil || !strings.Contains(err.Error(), `"`+s+`"`) || !strings.Contains(err.Error(), "off|online") {
			t.Fatalf("ParseMode(%q) err = %v, want the value and off|online named", s, err)
		}
	}
	if m, err := ParseMode("online"); err != nil || m != Online {
		t.Fatalf("ParseMode(online) = %v, %v", m, err)
	}
	if m, err := ParseMode(""); err != nil || m != Off {
		t.Fatalf("ParseMode(\"\") = %v, %v", m, err)
	}
	if Online.String() != "online" || Off.String() != "off" {
		t.Fatal("Mode.String mismatch")
	}
}
