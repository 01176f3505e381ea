// Package fft implements an iterative radix-2 complex FFT and the real
// power-spectrum helpers the field diagnostics need. The standard
// library has no FFT; this one is small, allocation-conscious, and exact
// enough (float64) for diagnostic use.
package fft

import (
	"fmt"
	"math"
	"math/cmplx"
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// NextPow2 returns the smallest power of two ≥ n (n ≥ 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Forward computes the in-place forward DFT of x, whose length must be a
// power of two: X[k] = Σ_n x[n]·exp(−2πi·kn/N), by the iterative
// Cooley-Tukey butterfly.
func Forward(x []complex128) error {
	n := len(x)
	if !IsPow2(n) {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
	// Bit-reversal permutation.
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
		mask := n >> 1
		for j&mask != 0 {
			j &^= mask
			mask >>= 1
		}
		j |= mask
	}
	// Butterflies.
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := cmplx.Exp(complex(0, -2*math.Pi/float64(size)))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= step
			}
		}
	}
	return nil
}

// ForwardReal computes the DFT of a real sequence (length a power of
// two) and returns the full complex spectrum of the same length.
func ForwardReal(x []float64) ([]complex128, error) {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	if err := Forward(c); err != nil {
		return nil, err
	}
	return c, nil
}

// PowerSpectrum returns |X[k]|²/N² for k = 0..N/2 of a real signal
// (one-sided, not doubled), padding with zeros to the next power of two
// if necessary. The normalization makes a pure unit-amplitude sinusoid
// at an exact bin frequency show power 1/4 in its bin.
func PowerSpectrum(x []float64) ([]float64, error) {
	n := NextPow2(len(x))
	padded := make([]float64, n)
	copy(padded, x)
	c, err := ForwardReal(padded)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n/2+1)
	norm := 1 / float64(n) / float64(n)
	for k := range out {
		out[k] = (real(c[k])*real(c[k]) + imag(c[k])*imag(c[k])) * norm
	}
	return out, nil
}

// DominantMode returns the index (k ≥ 1, excluding DC) and power of the
// strongest non-DC bin of a real signal's one-sided power spectrum.
func DominantMode(x []float64) (k int, power float64, err error) {
	ps, err := PowerSpectrum(x)
	if err != nil {
		return 0, 0, err
	}
	for i := 1; i < len(ps); i++ {
		if ps[i] > power {
			power = ps[i]
			k = i
		}
	}
	return k, power, nil
}
