// Quickstart: build a cold plasma, ring it, and watch it oscillate at
// the plasma frequency — the "hello world" of particle-in-cell codes.
// The module has no importable API (it is a set of commands); a program
// inside it builds a deck from internal/deck and steps the simulation
// the deck returns.
package main

import (
	"fmt"
	"log"
	"math"

	"govpic/internal/deck"
)

func main() {
	// A quasi-1D periodic plasma at n = 0.25·ncr, so ωpe = 0.5·ωref.
	d := deck.PlasmaOscillation(64 /*cells*/, 64 /*particles per cell*/, 0.25)
	sim, err := d.New()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d particles on %d cells; dt = %.4f\n",
		sim.TotalParticles(), d.Cfg.NX, d.Cfg.DT)

	// Track the electric field energy: it oscillates at 2·ωpe as the
	// perturbation sloshes between kinetic and field energy.
	wpe := d.Notes["wpe"]
	var lastE float64
	var peaks []float64
	rising := false
	for sim.Time() < 12*2*math.Pi/wpe {
		sim.Step()
		e := sim.Energy().EField
		if e < lastE && rising {
			peaks = append(peaks, sim.Time())
		}
		rising = e > lastE
		lastE = e
	}
	if len(peaks) < 4 {
		log.Fatalf("expected several field-energy peaks, saw %d", len(peaks))
	}
	// Field energy peaks twice per plasma period.
	period := 2 * (peaks[len(peaks)-1] - peaks[0]) / float64(len(peaks)-1)
	fmt.Printf("measured plasma period %.3f (theory 2π/ωpe = %.3f)\n", period, 2*math.Pi/wpe)
	fmt.Printf("measured ωpe = %.4f, theory %.4f, error %.2f%%\n",
		2*math.Pi/period, wpe, 100*math.Abs(2*math.Pi/period-wpe)/wpe)

	final := sim.Energy()
	fmt.Printf("energy: field %.4g + kinetic %.4g = %.4g (drift-free to ~1%%)\n",
		final.EField+final.BField, final.Kinetic[0], final.Total)
}
