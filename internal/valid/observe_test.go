package valid

import (
	"math"
	"testing"
)

// TestFitGrowthRecoversRate feeds a synthetic noise-floor →
// exponential-growth → saturation history and requires the fit to
// recover the planted rate from the clean stretch only.
func TestFitGrowthRecoversRate(t *testing.T) {
	const gamma, floor, sat = 0.05, 1e-8, 1e-2
	var hist []sample
	for i := 0; i <= 400; i++ {
		ti := float64(i)
		v := floor * math.Exp(2*gamma*ti)
		if v > sat {
			v = sat // saturated sloshing
		}
		hist = append(hist, sample{ti, v})
	}
	g, amp, err := fitGrowth(hist)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-gamma) > 0.02*gamma {
		t.Errorf("gamma = %g, want %g within 2%%", g, gamma)
	}
	if amp < sat/floor/2 {
		t.Errorf("amplification = %g, want ~%g", amp, sat/floor)
	}
}

func TestFitGrowthRejectsDegenerate(t *testing.T) {
	if _, _, err := fitGrowth([]sample{{0, 1}, {1, 2}}); err == nil {
		t.Error("accepted 2-sample history")
	}
	if _, _, err := fitGrowth([]sample{{0, 0}, {1, 1}, {2, 2}, {3, 3}}); err == nil {
		t.Error("accepted zero noise floor")
	}
	// Flat history: never exceeds 10x floor, so no exponential window.
	flat := make([]sample, 50)
	for i := range flat {
		flat[i] = sample{float64(i), 1}
	}
	if _, _, err := fitGrowth(flat); err == nil {
		t.Error("accepted flat history")
	}
}

// TestFitWaveRecoversOmegaGamma plants a damped cosine and requires the
// zero-crossing frequency and window-envelope damping to come back.
func TestFitWaveRecoversOmegaGamma(t *testing.T) {
	const omega, gamma = 1.3, 0.02
	var series []sample
	for i := 0; i <= 4000; i++ {
		ti := float64(i) * 0.01
		series = append(series, sample{ti, math.Cos(omega*ti) * math.Exp(-gamma*ti)})
	}
	w, g, plateau, err := fitWave(series, omega)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w-omega) > 0.02*omega {
		t.Errorf("omega = %g, want %g within 2%%", w, omega)
	}
	if math.Abs(g-gamma) > 0.3*gamma {
		t.Errorf("gamma = %g, want %g within 30%%", g, gamma)
	}
	if plateau <= 0 || plateau >= 1 {
		t.Errorf("damped wave's plateau = %g, want in (0, 1)", plateau)
	}

	// O'Neil's shape: damping stops once the amplitude is down to 0.6, so
	// every late window keeps 0.6² of the first one's power.
	for i := range series {
		ti := series[i].t
		series[i].v = math.Cos(omega*ti) * math.Max(math.Exp(-0.1*ti), 0.6)
	}
	if _, _, plateau, err = fitWave(series, omega); err != nil {
		t.Fatal(err)
	}
	if math.Abs(plateau-0.36) > 0.01*0.36 {
		t.Errorf("plateau = %g, want 0.36 within 1%%", plateau)
	}
}

func TestFitWaveRejectsShortSeries(t *testing.T) {
	series := []sample{{0, 1}, {1, -1}, {2, 1}}
	if _, _, _, err := fitWave(series, 1); err == nil {
		t.Error("accepted series with too few crossings")
	}
}

func TestFinite01(t *testing.T) {
	if finite01(1, 2, -3) != 1 {
		t.Error("finite inputs scored 0")
	}
	if finite01(1, math.NaN()) != 0 || finite01(math.Inf(1)) != 0 {
		t.Error("non-finite input scored 1")
	}
}
