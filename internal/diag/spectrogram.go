package diag

import (
	"fmt"
	"math"

	"govpic/internal/fft"
)

// Spectrogram accumulates a field line-out over time and produces the
// |E(k,ω)|² map whose ridges are the plasma's wave branches — the
// dispersion-diagram diagnostic production PIC runs use to confirm that
// the discrete plasma supports the right modes (EM branch
// ω² = ωpe² + c²k², Langmuir branch, and in driven runs the pump/seed/
// EPW triad of the Raman ladder).
type Spectrogram struct {
	dt    float64 // sample spacing in time
	dx    float64 // cell spacing of the line-out
	nx    int
	lines [][]float64
}

// NewSpectrogram prepares a spectrogram for line-outs of length nx on
// cells of size dx, sampled every dt.
func NewSpectrogram(nx int, dx, dt float64) *Spectrogram {
	return &Spectrogram{dt: dt, dx: dx, nx: nx}
}

// Add appends one line-out (a copy is stored).
func (s *Spectrogram) Add(line []float64) error {
	if len(line) != s.nx {
		return fmt.Errorf("diag: spectrogram line length %d, want %d", len(line), s.nx)
	}
	s.lines = append(s.lines, append([]float64(nil), line...))
	return nil
}

// Compute performs the 2-D transform and returns the power map
// P[ik][iw] for ik = 0..nk (one-sided in k) and iw = 0..nw (one-sided
// in ω), together with the axis steps dk and dω. The time series is
// Hann-windowed to suppress leakage from the non-periodic record.
func (s *Spectrogram) Compute() (power [][]float64, dk, dw float64, err error) {
	nt := len(s.lines)
	if nt < 8 {
		return nil, 0, 0, fmt.Errorf("diag: only %d time samples", nt)
	}
	nxp := fft.NextPow2(s.nx)
	ntp := fft.NextPow2(nt)

	// Transform in space first: rows of complex spectra per time sample.
	spaceSpec := make([][]complex128, nt)
	for it, line := range s.lines {
		c := make([]complex128, nxp)
		for i, v := range line {
			c[i] = complex(v, 0)
		}
		if err := fft.Forward(c); err != nil {
			return nil, 0, 0, err
		}
		spaceSpec[it] = c
	}

	nk := nxp/2 + 1
	nw := ntp/2 + 1
	power = make([][]float64, nk)
	for ik := 0; ik < nk; ik++ {
		// Assemble the time series of this k-mode, Hann-windowed.
		c := make([]complex128, ntp)
		for it := 0; it < nt; it++ {
			w := 0.5 * (1 - math.Cos(2*math.Pi*float64(it)/float64(nt-1)))
			c[it] = spaceSpec[it][ik] * complex(w, 0)
		}
		if err := fft.Forward(c); err != nil {
			return nil, 0, 0, err
		}
		row := make([]float64, nw)
		for iw := 0; iw < nw; iw++ {
			// Fold positive and negative frequencies (standing-wave
			// records put power in both).
			p := real(c[iw])*real(c[iw]) + imag(c[iw])*imag(c[iw])
			if iw > 0 && iw < ntp/2 {
				q := c[ntp-iw]
				p += real(q)*real(q) + imag(q)*imag(q)
			}
			row[iw] = p
		}
		power[ik] = row
	}
	dk = 2 * math.Pi / (float64(nxp) * s.dx)
	dw = 2 * math.Pi / (float64(ntp) * s.dt)
	return power, dk, dw, nil
}

// RidgeFrequency returns the ω of the strongest non-DC bin at or above
// wMin at spatial mode ik — the measured branch frequency at that k. The
// floor keeps low-frequency noise leakage from outbidding a branch known
// to lie above it (the Langmuir branch never dips below ωpe); wMin ≤ 0
// searches every non-DC bin.
func (s *Spectrogram) RidgeFrequency(power [][]float64, dw float64, ik int, wMin float64) float64 {
	if ik < 0 || ik >= len(power) {
		return 0
	}
	best, bw := 0.0, 0
	for iw := 1; iw < len(power[ik]); iw++ {
		if float64(iw)*dw >= wMin && power[ik][iw] > best {
			best = power[ik][iw]
			bw = iw
		}
	}
	return float64(bw) * dw
}
