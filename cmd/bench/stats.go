package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the median of v (0 for an empty slice).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of v exactly as
// Python's statistics.quantiles(v, n=4) computes them (the exclusive
// method), so spreads printed here match the ones the PR driver takes.
// With fewer than two samples both quartiles equal the median.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		m := median(v)
		return m, m
	}
	s := sorted(v)
	at := func(k int) float64 { // k-th of the 4 cut points, 1-based
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// tailPercentiles are the candidates for the reported tail, ascending.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// tailPercentile picks the highest candidate percentile that still has
// at least ten of the n samples beyond it — a tail read off fewer
// samples is one outlier, not a percentile. Below 20 samples not even
// the median qualifies and ok is false.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if beyond(n, c) >= 10 {
			p, ok = c, true
		}
	}
	return p, ok
}

// rank is the nearest-rank index (1-based) of percentile p among n
// ascending samples; beyond counts the samples strictly above it.
func rank(n int, p float64) int {
	r := int(math.Ceil(float64(n) * p / 100))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

func beyond(n int, p float64) int { return n - rank(n, p) }

// percentile returns the nearest-rank p-th percentile of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	return s[rank(len(s), p)-1]
}

// tail returns the reported tail of v: the percentile tailPercentile
// picks, or the maximum when v has too few samples for any.
func tail(v []float64) (p, value float64) {
	p, ok := tailPercentile(len(v))
	if !ok {
		p = 100
	}
	return p, percentile(v, p)
}
