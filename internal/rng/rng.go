// Package rng provides the deterministic pseudo-random number generators
// used for plasma loading and anywhere else the simulation needs
// randomness.
//
// Reproducibility is a hard requirement: a deck plus a seed must produce
// bit-identical particle loads regardless of how the run is decomposed
// into ranks. Each rank therefore derives an independent stream from
// (seed, rank) via SplitMix64, and the core generator is xoshiro256**,
// which is fast, has a 2^256−1 period, and passes BigCrush.
package rng

import "math"

// Source is a deterministic 64-bit PRNG stream.
type Source struct {
	s [4]uint64
	// cached second normal variate from Box-Muller
	hasSpare bool
	spare    float64
}

// splitmix64 advances x and returns the next SplitMix64 output. It is
// used only to seed the main generator so that nearby (seed, rank)
// pairs yield well-separated streams.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source for the given global seed and stream index
// (typically the rank). Distinct (seed, stream) pairs give independent
// streams.
func New(seed uint64, stream int) *Source {
	s := Make(seed, stream)
	return &s
}

// Make is New by value: the same stream, in a Source the caller can
// keep on its stack (a loader seeds one per cell without allocating).
func Make(seed uint64, stream int) Source {
	x := seed ^ (0xa0761d6478bd642f * uint64(stream+1))
	var s Source
	for i := range s.s {
		s.s[i] = splitmix64(&x)
	}
	// xoshiro must not be seeded with all zeros; splitmix64 makes that
	// astronomically unlikely, but guard anyway.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 1
	}
	return s
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits (xoshiro256**).
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform variate in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform variate in [lo, hi).
func (r *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := mul64(x, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Normal returns a standard normal variate (mean 0, variance 1) using
// the Box-Muller transform with caching of the second variate.
func (r *Source) Normal() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u1 float64
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	mag := math.Sqrt(-2 * math.Log(u1))
	r.spare = mag * math.Sin(2*math.Pi*u2)
	r.hasSpare = true
	return mag * math.Cos(2*math.Pi*u2)
}

// Maxwellian returns a momentum component u = γv/c drawn from a
// non-relativistic Maxwellian of thermal spread uth = sqrt(T/mc²) per
// component. For the temperatures of interest (keV-scale) the
// non-relativistic draw is accurate to O(uth²) ≈ 1e-2 and matches what
// standard PIC loaders do.
func (r *Source) Maxwellian(uth float64) float64 {
	return uth * r.Normal()
}
