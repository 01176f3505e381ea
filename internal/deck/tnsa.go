package deck

import (
	"fmt"
	"math"

	"govpic/internal/core"
	"govpic/internal/field"
	"govpic/internal/laser"
	"govpic/internal/loader"
	"govpic/internal/push"
)

// TNSAParams configures the thin-target TNSA ion-acceleration deck —
// the community cross-code benchmark (EPOCH/LSP/WarpX comparison,
// PAPERS.md): an intense laser strikes an overdense slab, drives a hot
// electron population through it, and the hot-electron sheath on the
// rear surface accelerates protons out of a thin contamination layer.
// Units are anchored at the laser frequency (lengths in c/ω0, densities
// in ncr, temperatures in me·c²).
type TNSAParams struct {
	// A0 is the laser strength eE/(me·c·ω0); the comparison paper spans
	// a0 ≈ 0.7–21 (10¹⁸–10²¹ W/cm² at 800 nm).
	A0 float64
	// NeTarget is the bulk electron density in ncr; TNSA needs an
	// overdense (>1) target so the laser is stopped at the front surface.
	NeTarget float64
	// Te is the initial electron temperature in me·c². Smoke-scale decks
	// preheat to keep λD resolvable; the observables (hot-electron tail,
	// sheath-accelerated protons) sit far above this bulk temperature.
	Te float64
	// TargetThickness is the bulk slab thickness in c/ω0.
	TargetThickness float64
	// ContamThickness and ContamNe describe the rear-surface proton
	// contamination layer (thickness in c/ω0, electron density in ncr).
	ContamThickness, ContamNe float64
	// FrontVacuum and RearVacuum are the field-only buffers ahead of the
	// front surface (laser inlet) and behind the contamination layer
	// (where the accelerated protons fly).
	FrontVacuum, RearVacuum float64
	// DX is the cell size in c/ω0; it must resolve the target's Debye
	// length.
	DX float64
	// PPC is the macro-particles per cell per species in each species'
	// own region.
	PPC int
	// IonZ and IonM define the bulk ion species (defaults C⁶⁺: Z=6,
	// M/me ≈ 22033).
	IonZ, IonM float64
	// RefluxWalls re-emits particles thermally at the x walls instead of
	// absorbing them (VPIC's maxwellian_reflux); absorbing walls are the
	// comparison paper's choice and the default.
	RefluxWalls bool
	// NRanks decomposes the box along x.
	NRanks int
	// Seed selects the load realization.
	Seed uint64
}

// DefaultTNSA returns the smoke-scale baseline: a 2 c/ω0 carbon slab at
// 5 ncr with a thin proton layer, preheated to 2.6 keV so the default
// cell resolves λD.
func DefaultTNSA(a0 float64) TNSAParams {
	return TNSAParams{
		A0: a0, NeTarget: 5, Te: 0.005088,
		TargetThickness: 2, ContamThickness: 0.25, ContamNe: 1,
		FrontVacuum: 8, RearVacuum: 12,
		DX: 0.05, PPC: 64,
		IonZ: 6, IonM: 22033,
		NRanks: 1, Seed: 20210702,
	}
}

// PonderomotiveThot returns the Wilks ponderomotive hot-electron
// temperature scale in me·c²: sqrt(1 + a0²/2) − 1. The comparison
// paper's codes agree with it to within a factor of ~2 across their
// intensity scan; it anchors the valid subsystem's hot-electron check.
func PonderomotiveThot(a0 float64) float64 {
	return math.Sqrt(1+a0*a0/2) - 1
}

// TNSA builds the ion-acceleration deck: three mobile species
// (electrons over target+layer, bulk ions, protons in the layer),
// absorbing field walls in x, a pump from the left. Notes include the
// ponderomotive hot-electron scale ("thotPond"), the rear-surface
// position ("xRear"), the slab plasma frequency ("wpeTarget"), the
// box length ("total") and probe plane ("probeX").
func TNSA(p TNSAParams) (Deck, error) {
	if p.A0 <= 0 {
		return Deck{}, &ConfigError{Field: "a0", Value: p.A0, Reason: "TNSA needs a positive laser strength"}
	}
	if p.NeTarget <= 1 {
		return Deck{}, &ConfigError{Field: "n0", Value: p.NeTarget, Reason: "TNSA target must be overdense (> 1 ncr)"}
	}
	if p.Te <= 0 {
		return Deck{}, &ConfigError{Field: "te", Value: p.Te, Reason: "initial temperature must be positive"}
	}
	if p.TargetThickness <= 0 || p.ContamThickness <= 0 || p.ContamNe <= 0 {
		return Deck{}, &ConfigError{Field: "target_thickness", Value: p.TargetThickness,
			Reason: "target and contamination layers need positive thickness and density"}
	}
	if p.PPC < 1 {
		return Deck{}, &ConfigError{Field: "ppc", Value: float64(p.PPC), Reason: "needs ≥ 1 particle per cell"}
	}
	if p.IonZ <= 0 || p.IonM <= 0 {
		return Deck{}, &ConfigError{Field: "ion_z", Value: p.IonZ, Reason: "bulk ion charge state and mass must be positive"}
	}
	lambdaD := math.Sqrt(p.Te / p.NeTarget)
	if p.DX <= 0 || p.DX > 2*lambdaD {
		return Deck{}, &ConfigError{Field: "dx", Value: p.DX,
			Reason: "cell does not resolve the target Debye length " + fmtG(lambdaD)}
	}

	if err := checkLengths(p.DX, namedLength{"target_thickness", p.TargetThickness},
		namedLength{"contam_thickness", p.ContamThickness},
		namedLength{"front_vacuum", p.FrontVacuum}, namedLength{"rear_vacuum", p.RearVacuum}); err != nil {
		return Deck{}, err
	}
	total := p.FrontVacuum + p.TargetThickness + p.ContamThickness + p.RearVacuum
	nx := int(math.Round(total / p.DX))
	if p.NRanks > 1 {
		nx = (nx/p.NRanks + 1) * p.NRanks // make decomposable
	}
	x0 := p.FrontVacuum                    // front target surface
	x1 := x0 + p.TargetThickness           // rear bulk surface
	x2 := x1 + p.ContamThickness           // rear of the contamination layer
	uthE := math.Sqrt(p.Te)                // electron thermal spread
	uthI := math.Sqrt(p.Te / 10 / p.IonM)  // Ti = Te/10, cold heavy ions
	uthP := math.Sqrt(p.Te / 10 / 1836.15) // protons share Ti

	// Region profiles. Each species loads PPC macro-particles per cell
	// in its own region at its own reference density; the electron
	// profile covers both regions so the start is neutral on average
	// (the Marder cleaner keeps Gauss's law tied to the loaded charge).
	inBulk := func(x float64) bool { return x >= x0 && x < x1 }
	inContam := func(x float64) bool { return x >= x1 && x < x2 }
	electronProfile := func(x, y, z float64) float64 {
		switch {
		case inBulk(x):
			return p.NeTarget
		case inContam(x):
			return p.ContamNe
		}
		return 0
	}
	ionProfile := func(x, y, z float64) float64 {
		if inBulk(x) {
			return p.NeTarget / p.IonZ
		}
		return 0
	}
	protonProfile := func(x, y, z float64) float64 {
		if inContam(x) {
			return p.ContamNe
		}
		return 0
	}

	cfg := core.Config{
		NX: nx, NY: 1, NZ: 1,
		DX: p.DX, DY: 1, DZ: 1,
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
		Species: []core.SpeciesConfig{
			{
				Name: "electron", Q: -1, M: 1, SortInterval: 20,
				Load: &loader.Params{
					Profile: electronProfile, PPC: p.PPC, Nref: p.NeTarget,
					Uth:  [3]float64{uthE, uthE, uthE},
					Seed: p.Seed,
				},
			},
			{
				Name: "ion", Q: p.IonZ, M: p.IonM, SortInterval: 50,
				Load: &loader.Params{
					Profile: ionProfile, PPC: p.PPC, Nref: p.NeTarget / p.IonZ,
					Uth:  [3]float64{uthI, uthI, uthI},
					Seed: p.Seed + 1,
				},
			},
			{
				Name: "proton", Q: 1, M: 1836.15, SortInterval: 50,
				Load: &loader.Params{
					Profile: protonProfile, PPC: p.PPC, Nref: p.ContamNe,
					Uth:  [3]float64{uthP, uthP, uthP},
					Seed: p.Seed + 2,
				},
			},
		},
		CleanInterval: 20,
		CleanPasses:   2,
	}
	cfg.DT = cfg.CourantDT(0.95)
	cfg.Lasers = []*laser.Antenna{{
		XGlobal: 2 * p.DX, Omega: 1, A0: p.A0, RampTime: 10, Pol: laser.PolY,
	}}

	d := Deck{
		Name: "tnsa",
		Cfg:  cfg,
		Notes: map[string]float64{
			"thotPond":  PonderomotiveThot(p.A0),
			"xFront":    x0,
			"xRear":     x2,
			"total":     total,
			"wpeTarget": math.Sqrt(p.NeTarget),
			"probeX":    p.FrontVacuum / 2,
			"lambdaD":   lambdaD,
		},
	}
	if p.RefluxWalls {
		// Each species refluxes at its own thermal spread — re-emitting a
		// heavy ion with the electron spread would inject keV ions at
		// every wall crossing.
		uthW := [][3]float32{
			{float32(uthE), float32(uthE), float32(uthE)},
			{float32(uthI), float32(uthI), float32(uthI)},
			{float32(uthP), float32(uthP), float32(uthP)},
		}
		d.Setup = refluxXWalls(uthW)
	}
	return d, nil
}

func fmtG(v float64) string {
	return fmt.Sprintf("%g", v)
}
