package deck

import (
	"math"
	"testing"

	"govpic/internal/core"
	"govpic/internal/particle"
)

// particles is a lockstep world's global particle count.
func particles(s *core.Simulation) int { return core.Collect(s, (*core.RankSim).TotalParticles) }

func TestAllDecksValidate(t *testing.T) {
	decks := []Deck{
		Thermal(8, 8, 8, 8, 1, 0.2, 0.05),
		PlasmaOscillation(16, 16, 0.25),
		TwoStream(32, 16, 0.2, 0.1),
		Weibel(16, 16, 0.2, 0.1, 0.01),
		Landau(32, 64, 2, 0.2, 0.04, 0.005),
	}
	for _, d := range decks {
		cfg := d.Cfg
		if err := cfg.Validate(); err != nil {
			t.Errorf("deck %q invalid: %v", d.Name, err)
		}
	}
}

func TestThermalDeckRuns(t *testing.T) {
	d := Thermal(8, 4, 4, 8, 2, 0.2, 0.05)
	s, err := d.New()
	if err != nil {
		t.Fatal(err)
	}
	s.Run(5)
	if particles(s) != 8*4*4*8 {
		t.Fatalf("particles = %d", particles(s))
	}
}

func TestPlasmaOscillationDeckPerturbed(t *testing.T) {
	d := PlasmaOscillation(16, 8, 0.25)
	s, err := d.New()
	if err != nil {
		t.Fatal(err)
	}
	// The setup must have seeded a net sinusoidal ux pattern.
	var anyNonzero bool
	for _, p := range s.Ranks[0].Species[0].Buf.All() {
		if p.Ux != 0 {
			anyNonzero = true
			break
		}
	}
	if !anyNonzero {
		t.Fatal("perturbation not applied")
	}
}

func TestTwoStreamNotes(t *testing.T) {
	d := TwoStream(32, 16, 0.2, 0.1)
	wpe := math.Sqrt(0.2)
	if math.Abs(d.Notes["gammaMax"]-wpe/math.Sqrt(8)) > 1e-12 {
		t.Fatalf("gammaMax note = %g", d.Notes["gammaMax"])
	}
	if len(d.Cfg.Species) != 2 {
		t.Fatal("two-stream needs two beams")
	}
}

func TestLPIDeck(t *testing.T) {
	d, err := LPI(DefaultLPI(0.02))
	if err != nil {
		t.Fatal(err)
	}
	cfg := d.Cfg
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Cfg.Lasers) != 2 {
		t.Fatalf("LPI deck has %d antennas, want pump+seed", len(d.Cfg.Lasers))
	}
	// Seed frequency below pump (Raman downshift).
	if d.Cfg.Lasers[1].Omega >= d.Cfg.Lasers[0].Omega {
		t.Fatal("seed not downshifted")
	}
	// kλD in the trapping regime.
	if d.Notes["kld"] < 0.25 || d.Notes["kld"] > 0.45 {
		t.Fatalf("kλD = %g", d.Notes["kld"])
	}
	if d.Notes["Rfloor"] <= 0 || d.Notes["Rlinear"] < d.Notes["Rfloor"] {
		t.Fatalf("reflectivity notes inconsistent: %v", d.Notes)
	}
	// Gain must increase with pump strength.
	d2, err := LPI(DefaultLPI(0.04))
	if err != nil {
		t.Fatal(err)
	}
	if d2.Notes["gamma0"] <= d.Notes["gamma0"] {
		t.Fatal("growth rate not increasing with a0")
	}
}

func TestLPIDeckValidation(t *testing.T) {
	p := DefaultLPI(0.02)
	p.DX = 10 // way above λD
	if _, err := LPI(p); err == nil {
		t.Fatal("accepted unresolved Debye length")
	}
	p = DefaultLPI(0)
	if _, err := LPI(p); err == nil {
		t.Fatal("accepted a0=0")
	}
}

func TestLPIDeckBuildsAndSteps(t *testing.T) {
	p := DefaultLPI(0.02)
	p.PlateauLength, p.PPC = 10, 16 // tiny smoke test
	d, err := LPI(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.New()
	if err != nil {
		t.Fatal(err)
	}
	n0 := particles(s)
	if n0 == 0 {
		t.Fatal("no plasma loaded")
	}
	s.Run(10)
}

func TestLPIMobileIons(t *testing.T) {
	p := DefaultLPI(0.02)
	p.PlateauLength, p.PPC = 10, 8
	p.MobileIons = true
	d, err := LPI(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Cfg.Species) != 2 || d.Cfg.NeutralizingBackground {
		t.Fatal("mobile-ion deck misconfigured")
	}
	s, err := d.New()
	if err != nil {
		t.Fatal(err)
	}
	s.Run(5)
}

func TestPerturbVelocityValidation(t *testing.T) {
	d := Thermal(8, 1, 1, 4, 1, 0.2, 0.01)
	s, err := d.New()
	if err != nil {
		t.Fatal(err)
	}
	if err := PerturbVelocity(s.Ranks[0], 5, 0.01, 1); err == nil {
		t.Fatal("accepted bad species index")
	}
}

func TestLPI3DDeck(t *testing.T) {
	p := DefaultLPI(0.03)
	p.PlateauLength, p.PPC = 8, 4
	p.TransverseCells = 4
	d, err := LPI(p)
	if err != nil {
		t.Fatal(err)
	}
	if d.Cfg.NY != 4 || d.Cfg.NZ != 4 {
		t.Fatalf("3-D deck geometry %dx%d", d.Cfg.NY, d.Cfg.NZ)
	}
	if d.Cfg.Lasers[0].Profile == nil {
		t.Fatal("3-D pump has no transverse profile")
	}
	if d.Notes["spot"] <= 0 {
		t.Fatal("spot note missing")
	}
	s, err := d.New()
	if err != nil {
		t.Fatal(err)
	}
	s.Run(5) // full 3-D smoke: push, exchange, field advance
	if particles(s) == 0 {
		t.Fatal("no plasma in 3-D deck")
	}
}

// TestRefluxSpeciesDrawApart: on the LPI deck with mobile ions and
// reflux walls (one wall temperature for both species), an electron
// and an ion leaving through the x-low wall with the same momentum in
// the same step are re-emitted with different momenta: each species'
// kernel draws from its own stream.
func TestRefluxSpeciesDrawApart(t *testing.T) {
	p := DefaultLPI(0.03)
	p.PlateauLength, p.PPC, p.MobileIons, p.RefluxWalls = 8, 8, true, true
	d, err := LPI(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.New()
	if err != nil {
		t.Fatal(err)
	}
	rk := s.Ranks[0]
	var reemitted [2]particle.Particle
	for si := range reemitted {
		buf := particle.NewBuffer(1)
		buf.Append(particle.Particle{Dx: -0.9, Voxel: int32(rk.D.G.Voxel(1, 1, 1)), Ux: -0.5, W: 1})
		rk.Kernels[si].AdvanceP(buf)
		if buf.N() != 1 || buf.At(0).Ux <= 0 {
			t.Fatalf("species %d: particle %+v (%d left), want one re-emitted inward", si, buf.At(0), buf.N())
		}
		reemitted[si] = buf.At(0)
	}
	if e, i := reemitted[0], reemitted[1]; e.Ux == i.Ux && e.Uy == i.Uy && e.Uz == i.Uz {
		t.Fatalf("electron and ion re-emitted with the same momentum (%g, %g, %g)", e.Ux, e.Uy, e.Uz)
	}
}

func TestLPIRefluxWalls(t *testing.T) {
	p := DefaultLPI(0.03)
	p.PlateauLength, p.PPC = 8, 8
	p.VacuumLength = 2 // plasma near the walls so reflux matters
	p.RefluxWalls = true
	d, err := LPI(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.New()
	if err != nil {
		t.Fatal(err)
	}
	n0 := particles(s)
	s.Run(40)
	if particles(s) != n0 {
		t.Fatalf("reflux walls lost particles: %d → %d", n0, particles(s))
	}
}
