package deck

import (
	"fmt"
	"math"

	"govpic/internal/core"
	"govpic/internal/field"
	"govpic/internal/laser"
	"govpic/internal/loader"
	"govpic/internal/push"
	"govpic/internal/theory"
)

// LPIParams configures the paper's workload: a laser driving stimulated
// Raman backscatter in a hohlraum-like plasma slab, with a
// counter-propagating seed to shorten the transient (standard practice;
// the unseeded instability grows from noise over much longer times).
type LPIParams struct {
	// N is the electron density in critical-density units (paper regime:
	// ~0.05–0.14) and Te the temperature in me·c² (≈0.005 for 2.6 keV).
	N, Te float64
	// A0 is the pump strength eE/(me·c·ω0) — the parameter study sweeps
	// this (intensity ∝ A0²).
	A0 float64
	// SeedA0 sets the backscatter seed amplitude; the no-gain
	// reflectivity floor is (SeedA0/A0)².
	SeedA0 float64
	// PlateauLength is the flat-density plasma length in c/ω0.
	PlateauLength float64
	// RampLength is the density up/down ramp at each slab end.
	RampLength float64
	// VacuumLength is the field-only buffer at each wall.
	VacuumLength float64
	// DX is the cell size in c/ω0; it must resolve the Debye length.
	DX float64
	// PPC is the electrons per cell (the paper ran O(10³) for low noise;
	// scaled runs use less).
	PPC int
	// MobileIons co-loads a helium-like ion species; when false the ions
	// are an immobile neutralizing background (fine for sub-ps SRS).
	MobileIons bool
	// IonZ and IonM define the ion species when mobile (defaults He²⁺:
	// Z=2, M/me = 7294).
	IonZ, IonM float64
	// NRanks decomposes the box along x.
	NRanks int
	// Seed selects the load realization.
	Seed uint64
	// TransverseCells switches from quasi-1D (1, the default) to a 3-D
	// box with that many cells along y and z, illuminated by a Gaussian
	// spot. The production geometry of the paper; costs scale with
	// TransverseCells².
	TransverseCells int
	// SpotRadius is the 1/e field radius of the Gaussian spot in c/ω0
	// (ignored when quasi-1D; defaults to a third of the transverse
	// extent).
	SpotRadius float64
	// RefluxWalls re-emits particles thermally at the x walls instead of
	// absorbing them — VPIC's maxwellian_reflux, the production choice
	// when plasma touches the boundary.
	RefluxWalls bool
}

// DefaultLPI returns the baseline parameters of the scaled-down
// parameter study: n = 0.1 ncr, Te = 2.6 keV, kλD ≈ 0.33 — squarely in
// the trapping-inflation regime the paper's trillion-particle runs were
// built to resolve.
func DefaultLPI(a0 float64) LPIParams {
	return LPIParams{
		N: 0.1, Te: 0.005088, A0: a0, SeedA0: a0 / 30,
		PlateauLength: 80, RampLength: 10, VacuumLength: 8,
		DX: 0.25, PPC: 256,
		IonZ: 2, IonM: 7294,
		NRanks: 1, Seed: 20081115,
	}
}

// LPI builds the laser-plasma deck. Notes include the SRS matching
// solution ("ws", "ke", "kld", "nuL", "gamma0"), the linear-theory
// reflectivity ("Rlinear"), the seed floor ("Rfloor"), and the probe
// plane ("probeX").
func LPI(p LPIParams) (Deck, error) {
	if p.DX <= 0 || p.PPC < 1 || p.A0 <= 0 {
		return Deck{}, fmt.Errorf("deck: invalid LPI parameters %+v", p)
	}
	lambdaD := math.Sqrt(p.Te) / math.Sqrt(p.N)
	if p.DX > 2*lambdaD {
		return Deck{}, fmt.Errorf("deck: DX=%g does not resolve λD=%g", p.DX, lambdaD)
	}
	m, err := theory.MatchSRS(p.N, p.Te)
	if err != nil {
		return Deck{}, err
	}

	if err := checkLengths(p.DX, namedLength{"plateau_length", p.PlateauLength},
		namedLength{"ramp_length", p.RampLength}, namedLength{"vacuum_length", p.VacuumLength}); err != nil {
		return Deck{}, err
	}
	total := 2*p.VacuumLength + 2*p.RampLength + p.PlateauLength
	nx := int(math.Round(total / p.DX))
	if p.NRanks > 1 {
		nx = (nx/p.NRanks + 1) * p.NRanks // make decomposable
	}
	slab0 := p.VacuumLength
	slab1 := total - p.VacuumLength

	nt := p.TransverseCells
	if nt < 1 {
		nt = 1
	}
	dyz := 1.0
	uth := math.Sqrt(p.Te)
	cfg := core.Config{
		NX: nx, NY: nt, NZ: nt,
		DX: p.DX, DY: dyz, DZ: dyz,
		NRanks: max(1, p.NRanks),
		FieldBC: [field.NumFaces]field.BC{
			field.XLo: field.Absorbing, field.XHi: field.Absorbing,
			field.YLo: field.Periodic, field.YHi: field.Periodic,
			field.ZLo: field.Periodic, field.ZHi: field.Periodic,
		},
		ParticleBC: [6]push.Action{
			field.XLo: push.Absorb, field.XHi: push.Absorb,
			field.YLo: push.Wrap, field.YHi: push.Wrap,
			field.ZLo: push.Wrap, field.ZHi: push.Wrap,
		},
		Species: []core.SpeciesConfig{{
			Name: "electron", Q: -1, M: 1, SortInterval: 20,
			Load: &loader.Params{
				Profile: loader.Slab(p.N, slab0, slab1, p.RampLength),
				PPC:     p.PPC, Nref: p.N,
				Uth:  [3]float64{uth, uth, uth},
				Seed: p.Seed,
			},
		}},
		CleanInterval:          50,
		CleanPasses:            2,
		NeutralizingBackground: !p.MobileIons,
	}
	if p.MobileIons {
		z, mi := p.IonZ, p.IonM
		if z == 0 {
			z, mi = 2, 7294
		}
		uthI := math.Sqrt(p.Te / 10 / mi) // Ti = Te/10, hohlraum-like
		cfg.Species = append(cfg.Species, core.SpeciesConfig{
			Name: "ion", Q: z, M: mi, SortInterval: 100,
			NeutralizePrevious: true,
			Load:               &loader.Params{Uth: [3]float64{uthI, uthI, uthI}, Seed: p.Seed + 1},
		})
		cfg.NeutralizingBackground = false
	}
	cfg.DT = cfg.CourantDT(0.95)

	probeX := p.VacuumLength / 2
	d := Deck{
		Name: "lpi-srs",
		Cfg:  cfg,
		Notes: map[string]float64{
			"ws":      m.Ws,
			"ke":      m.Ke,
			"kld":     m.KLD,
			"nuL":     m.NuL,
			"gamma0":  m.Growth(p.A0, p.N),
			"Rlinear": m.LinearReflectivity(p.A0, p.N, p.PlateauLength, (p.SeedA0/p.A0)*(p.SeedA0/p.A0)),
			"Rfloor":  (p.SeedA0 / p.A0) * (p.SeedA0 / p.A0),
			"probeX":  probeX,
			"total":   total,
			"wpe":     math.Sqrt(p.N),
		},
	}
	// Pump from the left; counter-propagating backscatter seed at ωs
	// from near the right wall (its +x half exits the absorbing boundary
	// immediately). Antenna A0 is defined per unit Omega, so the seed's
	// E amplitude p.SeedA0·ω0 requires A0 = SeedA0/ωs.
	pump := &laser.Antenna{XGlobal: 2 * p.DX, Omega: 1, A0: p.A0, RampTime: 30, Pol: laser.PolY}
	seedAnt := &laser.Antenna{XGlobal: total - 2*p.DX, Omega: m.Ws, A0: p.SeedA0 / m.Ws, RampTime: 30, Pol: laser.PolY}
	if nt > 1 {
		// 3-D: Gaussian spot centered on the transverse box.
		w0 := p.SpotRadius
		if w0 <= 0 {
			w0 = float64(nt) * dyz / 3
		}
		c := float64(nt) * dyz / 2
		pump.Profile = laser.Gaussian(c, c, w0)
		seedAnt.Profile = laser.Gaussian(c, c, w0)
		d.Notes["spot"] = w0
	}
	d.Cfg.Lasers = []*laser.Antenna{pump, seedAnt}

	if p.RefluxWalls {
		uthW := make([][3]float32, len(cfg.Species))
		for i := range uthW {
			uthW[i] = [3]float32{float32(uth), float32(uth), float32(uth)}
		}
		d.Setup = refluxXWalls(uthW)
	}
	return d, nil
}

// refluxXWalls returns the Setup hook that switches a rank's local x
// walls from absorption to thermal re-emission (species si re-emitted
// at uth[si]) — after the build, because the kernels exist only then.
func refluxXWalls(uth [][3]float32) func(*core.Rank) error {
	return func(rk *core.Rank) error {
		for si, k := range rk.Kernels {
			for _, face := range []field.Face{field.XLo, field.XHi} {
				if !rk.D.Remote(face) {
					k.EnableReflux(int(face), push.RefluxParams{Uth: uth[si], Species: si})
				}
			}
		}
		return nil
	}
}
