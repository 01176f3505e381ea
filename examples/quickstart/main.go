// Quickstart: build a cold plasma, ring it, and watch it oscillate at
// the plasma frequency — the "hello world" of particle-in-cell codes.
// The module has no importable API (it is a set of commands); a program
// inside it builds a deck from internal/deck and runs it as the member
// loop every driver runs (dist.Local), watching each step through the
// job's AfterStep hook.
package main

import (
	"fmt"
	"log"
	"math"

	"govpic/internal/core"
	"govpic/internal/deck"
	"govpic/internal/diag"
	"govpic/internal/dist"
)

func main() {
	// A quasi-1D periodic plasma at n = 0.25·ncr, so ωpe = 0.5·ωref.
	d := deck.PlasmaOscillation(64 /*cells*/, 64 /*particles per cell*/, 0.25)
	wpe := d.Notes["wpe"]
	end := 12 * 2 * math.Pi / wpe // twelve plasma periods

	// Track the electric field energy: it oscillates at 2·ωpe as the
	// perturbation sloshes between kinetic and field energy.
	var lastE float64
	var peaks []float64
	var final diag.EnergySample
	rising := false
	watch := func(rs *core.RankSim) bool {
		e := rs.Energy() // a collective: every member calls it, rank 0 keeps the record
		if rs.Comm().Rank() == 0 {
			if e.EField < lastE && rising {
				peaks = append(peaks, rs.Time())
			}
			rising, lastE, final = e.EField > lastE, e.EField, e
		}
		return rs.Time() >= end
	}
	res, err := dist.Local(d, dist.Job{Steps: int(end/d.Cfg.DT) + 1, AfterStep: watch}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d particles on %d cells; dt = %.4f\n",
		core.SumReports(res.Reports).Particles, d.Cfg.NX, d.Cfg.DT)
	if len(peaks) < 4 {
		log.Fatalf("expected several field-energy peaks, saw %d", len(peaks))
	}
	// Field energy peaks twice per plasma period.
	period := 2 * (peaks[len(peaks)-1] - peaks[0]) / float64(len(peaks)-1)
	fmt.Printf("measured plasma period %.3f (theory 2π/ωpe = %.3f)\n", period, 2*math.Pi/wpe)
	fmt.Printf("measured ωpe = %.4f, theory %.4f, error %.2f%%\n",
		2*math.Pi/period, wpe, 100*math.Abs(2*math.Pi/period-wpe)/wpe)

	fmt.Printf("energy: field %.4g + kinetic %.4g = %.4g (drift-free to ~1%%)\n",
		final.EField+final.BField, final.Kinetic[0], final.Total)
}
