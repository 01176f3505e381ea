package balance

import "math"

// BisectCuts computes a plane layout for parts slabs over a weighted
// line of cells by recursive bisection: each node splits its cell
// range at the plane that best approximates the weighted p1/p share
// (p1 = p/2), subject to every slab keeping at least one cell. The
// result is a cut array of parts+1 entries with cuts[0]=0 and
// cuts[parts]=len(weights); slab i owns cells [cuts[i], cuts[i+1]).
// The recursion is deterministic (ties break toward the smaller cut),
// so every rank computing it from the same weights gets the same
// layout.
func BisectCuts(weights []float64, parts int) []int {
	cuts := make([]int, parts+1)
	cuts[parts] = len(weights)
	prefix := make([]float64, len(weights)+1)
	for i, w := range weights {
		prefix[i+1] = prefix[i] + w
	}
	bisect(prefix, cuts, 0, parts, 0, len(weights))
	return cuts
}

// bisect fills cuts[part..part+p] for the slab group owning cells
// [lo,hi). prefix is the global cumulative weight (prefix[c] = total
// weight of cells [0,c)).
func bisect(prefix []float64, cuts []int, part, p, lo, hi int) {
	cuts[part] = lo
	cuts[part+p] = hi
	if p == 1 {
		return
	}
	p1 := p / 2
	total := prefix[hi] - prefix[lo]
	target := prefix[lo] + total*float64(p1)/float64(p)
	// The cut must leave at least one cell per slab on each side.
	cmin, cmax := lo+p1, hi-(p-p1)
	best := cmin
	bestErr := math.Abs(prefix[cmin] - target)
	for c := cmin + 1; c <= cmax; c++ {
		if e := math.Abs(prefix[c] - target); e < bestErr {
			best, bestErr = c, e
		}
	}
	bisect(prefix, cuts, part, p1, lo, best)
	bisect(prefix, cuts, part+p1, p-p1, best, hi)
}

// Imbalance returns the max/mean slab weight of cuts over the given
// per-cell weights (1 for empty input or zero total weight).
func Imbalance(weights []float64, cuts []int) float64 {
	if len(cuts) < 2 {
		return 1
	}
	slabs := make([]float64, len(cuts)-1)
	for i := range slabs {
		for c := cuts[i]; c < cuts[i+1]; c++ {
			slabs[i] += weights[c]
		}
	}
	return MaxOverMean(slabs)
}
