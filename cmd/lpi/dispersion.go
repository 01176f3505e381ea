package main

import (
	"fmt"
	"math"

	"govpic/internal/deck"
	"govpic/internal/diag"
	"govpic/internal/theory"
)

// dispersionDiagram lets a thermal plasma's own noise populate its wave
// branches and reads the Langmuir-branch frequency off the k–ω
// spectrogram at several wavenumbers, comparing with the kinetic
// dispersion solver — a first-principles consistency check between the
// discrete plasma and the theory used throughout the LPI analysis.
func dispersionDiagram(ppc, steps int) (result, error) {
	const (
		nx  = 64
		n0  = 0.2
		uth = 0.1
	)
	d := deck.Thermal(nx, 1, 1, ppc, 1, n0, uth)
	d.Cfg.NY, d.Cfg.NZ = 1, 1
	s, err := d.New()
	if err != nil {
		return result{}, err
	}
	sg := diag.NewSpectrogram(nx, d.Cfg.DX, d.Cfg.DT)
	rk := s.Ranks[0]
	for i := 0; i < steps; i++ {
		s.Step()
		if err := sg.Add(diag.LineOutEx(rk.D.F, 1, 1)); err != nil {
			return result{}, err
		}
	}
	power, dk, dw, err := sg.Compute()
	if err != nil {
		return result{}, err
	}

	var rows [][]float64
	for _, mode := range []int{2, 3, 4, 5} {
		k := float64(mode) * dk
		wMeas := sg.RidgeFrequency(power, dw, mode)
		root, err := theory.EPWDispersion(k, n0, uth*uth)
		if err != nil {
			return result{}, err
		}
		wKin := real(root)
		rows = append(rows, []float64{
			k, k * uth / math.Sqrt(n0), wMeas, wKin,
			100 * math.Abs(wMeas-wKin) / wKin,
		})
	}
	return result{
		Name:    "EV dispersion diagram (Langmuir branch from thermal noise)",
		Headers: []string{"k", "kλD", "ω_ridge", "ω_kinetic", "err %"},
		Rows:    rows,
		Text:    fmt.Sprintf("spectrogram: %d time samples, dω = %.4f\n", sg.NSamples(), dw),
	}, nil
}
