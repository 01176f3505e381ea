package deck

import (
	"math"
	"testing"

	"govpic/internal/core"
)

// quietTNSA builds the default smoke-scale TNSA deck with the laser
// removed: a closed three-species slab (no drive, and nothing reaches
// the x walls over a few hundred steps), so conservation laws hold to
// discretization accuracy and the multi-species bookkeeping is testable
// in isolation.
func quietTNSA(t *testing.T, mutate func(*TNSAParams)) *core.Simulation {
	t.Helper()
	p := DefaultTNSA(5)
	p.PPC = 16 // enough statistics, fast enough for a unit test
	if mutate != nil {
		mutate(&p)
	}
	d, err := TNSA(p)
	if err != nil {
		t.Fatal(err)
	}
	d.Cfg.Lasers = nil
	s, err := d.New()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// totalMomentum sums m·u·w per component over every species.
func totalMomentum(s *core.Simulation) [3]float64 {
	var p [3]float64
	for _, rk := range s.Ranks {
		for _, sp := range rk.Species {
			for _, pt := range sp.Buf.All() {
				w := float64(pt.W) * sp.M
				p[0] += w * float64(pt.Ux)
				p[1] += w * float64(pt.Uy)
				p[2] += w * float64(pt.Uz)
			}
		}
	}
	return p
}

// momentumScale is the characteristic total |p| (sum of m·|u|·w), the
// yardstick conservation drifts are measured against.
func momentumScale(s *core.Simulation) float64 {
	var scale float64
	for _, rk := range s.Ranks {
		for _, sp := range rk.Species {
			for _, pt := range sp.Buf.All() {
				u := math.Sqrt(float64(pt.Ux)*float64(pt.Ux) +
					float64(pt.Uy)*float64(pt.Uy) + float64(pt.Uz)*float64(pt.Uz))
				scale += float64(pt.W) * sp.M * u
			}
		}
	}
	return scale
}

// TestTNSAMultiSpeciesBookkeeping runs the undriven slab and checks the
// three-species energy and momentum accounting: per-species kinetic
// energies are tracked separately and sum with the fields into Total,
// and both total energy and total momentum are conserved to tight
// bounds in the closed configuration.
func TestTNSAMultiSpeciesBookkeeping(t *testing.T) {
	s := quietTNSA(t, nil)
	e0 := s.Energy()
	if len(e0.Kinetic) != 3 {
		t.Fatalf("tracking %d species, want 3", len(e0.Kinetic))
	}
	for i, k := range e0.Kinetic {
		if k <= 0 {
			t.Fatalf("species %d starts with kinetic energy %g", i, k)
		}
	}
	sum := e0.EField + e0.BField
	for _, k := range e0.Kinetic {
		sum += k
	}
	if math.Abs(sum-e0.Total) > 1e-12*e0.Total {
		t.Fatalf("Total = %g but parts sum to %g", e0.Total, sum)
	}
	p0 := totalMomentum(s)
	scale := momentumScale(s)

	s.Run(400)

	e1 := s.Energy()
	drift := (e1.Total - e0.Total) / e0.Total
	if math.Abs(drift) > 5e-3 {
		t.Errorf("closed TNSA slab energy drift %g over 400 steps", drift)
	}
	if s.LostEnergy() != 0 {
		t.Errorf("lost %g at walls in the undriven slab (nothing should reach them)", s.LostEnergy())
	}
	p1 := totalMomentum(s)
	for c := 0; c < 3; c++ {
		if d := math.Abs(p1[c]-p0[c]) / scale; d > 2e-2 {
			t.Errorf("momentum component %d drifted by %g of the total scale", c, d)
		}
	}
	// The heavy ions must stay cold relative to electrons: no spurious
	// heating channel between species (Ti starts at Te/10 and the only
	// coupling is the self-consistent field).
	if e1.Kinetic[1] > e1.Kinetic[0] {
		t.Errorf("bulk ions (%g) hotter than electrons (%g)", e1.Kinetic[1], e1.Kinetic[0])
	}
}

// TestTNSARefluxConservesParticles drives the full deck (laser on) with
// refluxing walls and requires the particle count of every species to
// stay exactly constant: reflux re-emits each wall crossing instead of
// absorbing it. The absorbing twin of the same run must lose electrons
// (the laser blows hot electrons through both surfaces), which pins
// the property to the boundary and not to nothing-reached-the-wall.
func TestTNSARefluxConservesParticles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the driven deck twice")
	}
	counts := func(s *core.Simulation) map[string]int {
		n := map[string]int{}
		for _, rk := range s.Ranks {
			for _, sp := range rk.Species {
				n[sp.Name] += sp.Buf.N()
			}
		}
		return n
	}
	run := func(reflux bool) (before, after map[string]int, lost float64) {
		p := DefaultTNSA(8) // hard drive so hot electrons reach the walls quickly
		p.PPC = 16
		p.RefluxWalls = reflux
		d, err := TNSA(p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := d.New()
		if err != nil {
			t.Fatal(err)
		}
		before = counts(s)
		s.Run(700)
		return before, counts(s), s.LostEnergy()
	}

	before, after, lost := run(true)
	for name, n0 := range before {
		if after[name] != n0 {
			t.Errorf("reflux walls: species %q count %d -> %d, want conserved", name, n0, after[name])
		}
	}
	if lost != 0 {
		t.Errorf("reflux walls absorbed %g energy, want none", lost)
	}

	_, afterAbs, lostAbs := run(false)
	if afterAbs["electron"] >= before["electron"] {
		t.Errorf("absorbing twin kept all %d electrons; the reflux property was vacuous", afterAbs["electron"])
	}
	if lostAbs <= 0 {
		t.Error("absorbing twin recorded no lost energy")
	}
}
