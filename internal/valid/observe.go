package valid

import (
	"fmt"
	"math"
)

// sample is one (time, value) point of a recorded history.
type sample struct{ t, v float64 }

// fitGrowth extracts an exponential growth rate from an energy history:
// a least-squares slope of log(E) over the clean exponential stretch —
// samples after the last dip below 10× the noise floor and before the
// first crossing of a quarter of the saturation energy (everything
// later is saturated sloshing). The energy grows at 2γ, so γ is half
// the slope. Also returns the saturation amplification peak/floor.
func fitGrowth(hist []sample) (gamma, amplification float64, err error) {
	if len(hist) < 4 {
		return 0, 0, fmt.Errorf("valid: growth history too short (%d samples)", len(hist))
	}
	floor := hist[0].v
	if floor <= 0 {
		return 0, 0, fmt.Errorf("valid: growth history floor %g not positive", floor)
	}
	peak := 0.0
	for _, h := range hist {
		peak = math.Max(peak, h.v)
	}
	end := len(hist)
	for i, h := range hist {
		if h.v > peak/4 {
			end = i
			break
		}
	}
	start := 0
	for i := 0; i < end; i++ {
		if h := hist[i]; h.v < 10*floor {
			start = i + 1
		}
	}
	var n, st, sv, stt, stv float64
	for _, h := range hist[start:end] {
		lv := math.Log(h.v)
		n++
		st += h.t
		sv += lv
		stt += h.t * h.t
		stv += h.t * lv
	}
	if n < 3 {
		return 0, 0, fmt.Errorf("valid: no clean exponential window (floor %g, peak %g)", floor, peak)
	}
	slope := (n*stv - st*sv) / (n*stt - st*st)
	return slope / 2, peak / floor, nil
}

// fitWave extracts a standing wave's frequency and damping rate from a
// mode-projection history: frequency from zero crossings, damping from
// the first two window maxima of the squared projection (one wave
// period per window; power damps at 2γ). It also returns O'Neil's
// plateau: the mean window maximum after 0.6 of the record over the
// first one — the power trapped particles keep once damping shuts off.
func fitWave(series []sample, wTheory float64) (omega, gamma, plateau float64, err error) {
	var crossings []float64
	for i := 1; i < len(series); i++ {
		a, b := series[i-1], series[i]
		if (a.v < 0 && b.v >= 0) || (a.v > 0 && b.v <= 0) {
			crossings = append(crossings, a.t+(b.t-a.t)*a.v/(a.v-b.v))
		}
	}
	if len(crossings) < 10 {
		return 0, 0, 0, fmt.Errorf("valid: too few zero crossings (%d) for a frequency", len(crossings))
	}
	nc := len(crossings) - 1
	omega = math.Pi * float64(nc) / (crossings[nc] - crossings[0])

	window := 2 * math.Pi / wTheory
	var peaks []sample
	wStart, cur := series[0].t, 0.0
	for _, s := range series {
		if s.t-wStart > window {
			peaks = append(peaks, sample{wStart, cur})
			wStart, cur = s.t, 0
		}
		if p := s.v * s.v; p > cur {
			cur = p
		}
	}
	if len(peaks) < 3 {
		return 0, 0, 0, fmt.Errorf("valid: too few envelope windows (%d) for a damping rate", len(peaks))
	}
	gamma = math.Log(peaks[0].v/peaks[1].v) / (peaks[1].t - peaks[0].t) / 2
	late := 0.6 * series[len(series)-1].t
	var sum, n float64
	for _, pk := range peaks {
		if pk.t > late {
			sum += pk.v
			n++
		}
	}
	if n > 0 {
		plateau = sum / n / peaks[0].v
	}
	return omega, gamma, plateau, nil
}

// finite01 maps "every value is finite" onto a gateable scalar: 1 when
// all inputs are finite, 0 otherwise.
func finite01(vs ...float64) float64 {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
	}
	return 1
}
