package main

import (
	"math"

	"govpic/internal/deck"
	"govpic/internal/diag"
)

// runReflectivity drives one LPI deck to (quasi-)steady state and
// returns the recording reflectometer.
func runReflectivity(d deck.Deck, extraWindow float64) (*diag.Reflectometer, error) {
	s, err := d.New()
	if err != nil {
		return nil, err
	}
	total := d.Notes["total"]
	// Measure once both waves have crossed the box and the ramps are
	// over, and keep measuring for several EPW response times 1/νL so
	// both the burst peaks and the detuned valleys are averaged in.
	tStart := total + 60
	tEnd := math.Max(500, 2*total+150) + extraWindow
	rk, ix, err := s.RankAt(d.Notes["probeX"])
	if err != nil {
		return nil, err
	}
	refl := &diag.Reflectometer{IX: ix, Record: true}
	for s.Time() < tEnd {
		s.Step()
		if s.Time() > tStart {
			refl.Sample(rk.D.F, s.Time())
		}
	}
	return refl, nil
}

// e7Reflectivity sweeps the pump strength and measures the backscatter
// reflectivity — the paper's parameter study ("laser reflectivity as a
// function of laser intensity"). Columns: the PIC measurement, the
// linear convective-gain prediction, and the no-gain seed floor. The
// shape to reproduce: R tracks the linear curve at low intensity and
// rises steeply (trapping inflation) above threshold. tier names a
// deck.ScaledLPI tier.
func e7Reflectivity(a0s []float64, tier string) (result, error) {
	var rows [][]float64
	for _, a0 := range a0s {
		d, err := deck.ScaledLPI(tier, a0)
		if err != nil {
			return result{}, err
		}
		refl, err := runReflectivity(d, 0)
		if err != nil {
			return result{}, err
		}
		rows = append(rows, []float64{
			a0, a0 * a0,
			refl.Reflectivity(),
			refl.MaxWindowed(50),
			d.Notes["Rlinear"],
			d.Notes["Rfloor"],
			d.Notes["gamma0"],
		})
	}
	return result{
		Name:    "E7 reflectivity vs pump strength (quasi-1D seeded SRS)",
		Headers: []string{"a0", "I (a0²)", "R_mean", "R_burst", "R_linear", "R_floor", "gamma0"},
		Rows:    rows,
	}, nil
}

// e8Trapping measures electron distribution flattening at the plasma
// wave phase velocity — the trapping physics the trillion-particle runs
// were built to resolve. It reports the plateau metric (measured f over
// Maxwellian fit at u_phi) before and after the SRS interaction.
func e8Trapping(a0 float64, tier string) (result, error) {
	d, err := deck.ScaledLPI(tier, a0)
	if err != nil {
		return result{}, err
	}
	we := 1 - d.Notes["ws"]
	vphi := we / d.Notes["ke"]
	uphi := vphi / math.Sqrt(1-vphi*vphi)
	uth := math.Sqrt(0.005088)
	total := d.Notes["total"]
	xmin, xmax := total*0.25, total*0.75 // plateau region

	s, err := d.New()
	if err != nil {
		return result{}, err
	}
	bins := 160
	umin, umax := -4*uphi, 4*uphi
	h0 := s.DistUx(0, xmin, xmax, umin, umax, bins)
	p0 := diag.PlateauMetric(h0, umin, umax, uth, uphi)

	tEnd := 2*total + 150
	for s.Time() < tEnd {
		s.Step()
	}
	h1 := s.DistUx(0, xmin, xmax, umin, umax, bins)
	p1 := diag.PlateauMetric(h1, umin, umax, uth, uphi)

	// Phase-space structure: trapping vortices bunch the resonant band
	// in x at the plasma-wave wavelength.
	ps := diag.NewPhaseSpace(xmin, xmax, 64, uphi*0.7, uphi*1.3, 16)
	for _, rk := range s.Ranks {
		ps.Accumulate(rk.D.G, rk.Species[0].Buf)
	}
	vortex := ps.VortexContrast(uphi*0.8, uphi*1.2)

	return result{
		Name:    "E8 particle trapping (distribution flattening at v_phi)",
		Headers: []string{"a0", "u_phi", "u_phi/u_th", "plateau(t=0)", "plateau(end)", "enhancement", "vortex"},
		Rows:    [][]float64{{a0, uphi, uphi / uth, p0, p1, safeDiv(p1, p0), vortex}},
		Text:    "plateau = f(u_phi)/Maxwellian fit (≈1 untouched, ≫1 flattened); vortex = x-bunching contrast of the resonant band\n",
	}, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// e9TimeHistory records the reflected-flux time series below and above
// the inflation threshold; the paper's histories are smooth below and
// strongly bursty above. Reported: the coefficient of variation of the
// backscattered flux.
func e9TimeHistory(a0Low, a0High float64, tier string) (result, error) {
	burst := func(a0 float64) ([]float64, error) {
		d, err := deck.ScaledLPI(tier, a0)
		if err != nil {
			return nil, err
		}
		refl, err := runReflectivity(d, 60)
		if err != nil {
			return nil, err
		}
		// The backscatter spectrum must peak at the Raman-shifted ωs.
		return []float64{a0, refl.Reflectivity(), refl.Burstiness(),
			refl.DominantFrequency(), d.Notes["ws"]}, nil
	}
	lo, err := burst(a0Low)
	if err != nil {
		return result{}, err
	}
	hi, err := burst(a0High)
	if err != nil {
		return result{}, err
	}
	return result{
		Name:    "E9 reflectivity time history: burstiness (σ/µ) and backscatter spectrum",
		Headers: []string{"a0", "R", "burstiness", "ω_back", "ωs theory"},
		Rows:    [][]float64{lo, hi},
	}, nil
}
