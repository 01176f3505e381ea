// TNSA ion acceleration: an intense laser strikes a thin overdense
// target, heats electrons to the ponderomotive temperature, and the
// hot-electron sheath on the rear surface accelerates protons out of a
// thin contamination layer — the community cross-code benchmark (the
// EPOCH/LSP/WarpX comparison paper) and ROADMAP item 4, at smoke
// scale. Prints the three comparison observables: maximum proton
// energy, the ion energy spectrum, and the hot-electron temperature.
package main

import (
	"fmt"
	"log"
	"math"

	"govpic"
	"govpic/internal/core"
	"govpic/internal/valid"
)

func main() {
	const a0 = 5.0 // ≈3.4e19 W/cm² at 800 nm — mid-range of the comparison scan
	p := govpic.DefaultTNSAParams(a0)
	d, err := govpic.TNSADeck(p)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := d.New()
	if err != nil {
		log.Fatal(err)
	}
	thot := d.Notes["thotPond"]
	fmt.Printf("a0 = %.1f on a %.1f ncr slab (%.1f c/ω0 + %.2f c/ω0 proton layer), %d particles\n",
		a0, p.NeTarget, p.TargetThickness, p.ContamThickness, sim.TotalParticles())
	fmt.Printf("Wilks ponderomotive hot-electron scale: %.2f me·c² (%.2f MeV)\n",
		thot, thot*govpic.MeVPerMc2)

	steps := 2200 // ≈100/ω0: sheath forms and the fastest protons detach
	for sim.StepCount() < steps {
		sim.Step()
		if sim.StepCount()%400 == 0 {
			e := sim.Energy()
			fmt.Printf("  step %4d  t=%5.1f  field=%.3g  kinetic(e,i,p)=%.3g %.3g %.3g\n",
				sim.StepCount(), sim.Time(), e.EField+e.BField,
				e.Kinetic[0], e.Kinetic[1], e.Kinetic[2])
		}
	}

	// The three comparison observables, through the validation
	// subsystem's extractor (identical code path to `validate`): its
	// probe methods are collectives, so every member of the simulation
	// calls them and member 0's answers come back.
	const elec, ion, proton = 0, 1, 2
	type observables struct {
		maxP, maxI, hotTe, hotW float64
		spec                    []float64
	}
	o := core.Collect(sim, func(rs *core.RankSim) (o observables) {
		pr := valid.NewProbe(rs)
		o.maxP, o.maxI = pr.MaxKE(proton), pr.MaxKE(ion)
		o.hotTe, o.hotW = pr.TailKE(elec, thot/4)
		o.spec = pr.SpectrumKE(proton, 20, 40)
		return o
	})
	maxP, maxI, hotTe, hotW := o.maxP, o.maxI, o.hotTe, o.hotW
	fmt.Printf("\nmax proton energy:        %.2f MeV\n", maxP*govpic.MeVPerMc2)
	fmt.Printf("max ion energy:           %.2f MeV (%.2f MeV/nucleon, C6+)\n",
		maxI*govpic.MeVPerMc2, maxI*govpic.MeVPerMc2/12)
	fmt.Printf("hot-electron temperature: %.2f me·c² = %.2f MeV (%.2fx ponderomotive, tail weight %.3g)\n",
		hotTe, hotTe*govpic.MeVPerMc2, hotTe/thot, hotW)

	// Ion (proton-layer) energy spectrum, log-binned display.
	fmt.Println("\nproton spectrum dN/dE (me·c² bins):")
	for b, w := range o.spec {
		if w == 0 {
			continue
		}
		bar := int(math.Max(1, 6*math.Log10(w/1e-3)))
		fmt.Printf("  %5.2f–%5.2f %8.3g %s\n",
			float64(b)*0.5, float64(b+1)*0.5, w, stars(bar))
	}

	if maxP*govpic.MeVPerMc2 < 0.5 {
		log.Fatal("protons did not accelerate to the MeV scale")
	}
	if hotTe < thot/4 || hotTe > 4*thot {
		log.Fatal("hot-electron temperature far from the ponderomotive scale")
	}
	fmt.Println("\nTNSA: hot-electron sheath accelerated the proton layer: ok")
}

func stars(n int) string {
	if n > 40 {
		n = 40
	}
	s := ""
	for i := 0; i < n; i++ {
		s += "*"
	}
	return s
}
