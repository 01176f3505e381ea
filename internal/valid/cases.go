package valid

import (
	"fmt"
	"math"

	"govpic/internal/deck"
	"govpic/internal/diag"
	"govpic/internal/fft"
	"govpic/internal/theory"
	"govpic/internal/units"
)

// Builtin returns the registry seeded with the standard cases: the
// kinetic benchmarks verified against internal/theory (Landau damping,
// two-stream, the thermal-noise Langmuir branch), the Weibel growth
// scale, conservation bounds on the thermal and SRS decks, the TNSA
// ion-acceleration flagship, and the paper's LPI study — reflectivity
// against intensity (E7), trapping and the backscatter line (E8, E9).
// Tolerances are documented next to each Check; DESIGN §14 records the
// policy behind them.
func Builtin() *Registry {
	r := &Registry{}
	for _, c := range []Case{
		landauCase(),
		twoStreamCase(),
		weibelCase(),
		thermalConservationCase(),
		srsConservationCase(),
		tnsaCase(),
		dispersionCase(),
		srsSeedFloorCase(),
		srsInflationCase(),
		srsTrappingCase(),
	} {
		if err := r.Register(c); err != nil {
			panic(err) // builtin table is static; a failure is a typo
		}
	}
	return r
}

// landauEPW solves the kinetic dispersion the Landau deck's Notes
// parameterize (k, wpe, kLD encode k, n0 and Te).
func landauEPW(d deck.Deck) (omega, gammaL float64, err error) {
	k, wpe, kld := d.Notes["k"], d.Notes["wpe"], d.Notes["kLD"]
	uth := kld * wpe / k
	root, err := theory.EPWDispersion(k, wpe*wpe, uth*uth)
	if err != nil {
		return 0, 0, err
	}
	return real(root), -imag(root), nil
}

// landauCase seeds a standing Langmuir wave and verifies the measured
// oscillation frequency against the *kinetic* EPW dispersion (the
// upshift from fluid Bohm-Gross is part of what is verified), the
// pre-bounce damping rate against the Landau root, and the O'Neil
// plateau the damping leaves once the resonant electrons are trapped.
func landauCase() Case {
	return Case{
		Name:  "landau-damping",
		About: "seeded Langmuir wave: kinetic dispersion frequency, Landau damping rate, O'Neil plateau",
		Tier:  TierFast,
		Spec: deck.JSONConfig{
			Deck: "landau", Steps: 1200,
			NX: 64, PPC: 1024, Mode: 8, N0: 0.2, Uth: 0.1, Amp: 0.01,
		},
		Observe: func(p Probe, d deck.Deck, steps int) (Obs, error) {
			wTheory, gTheory, err := landauEPW(d)
			if err != nil {
				return Obs{}, err
			}
			tEnd := 2.5 / gTheory
			var series []sample
			for p.StepCount() < steps && p.Time() < tEnd {
				p.Step()
				series = append(series, sample{p.Time(), p.ModeProjectEx(8)})
			}
			omega, gamma, plateau, err := fitWave(series, wTheory)
			if err != nil {
				return Obs{}, err
			}
			return Obs{Scalars: map[string]float64{
				"omega":           omega,
				"gammaL":          gamma,
				"plateauFraction": plateau,
			}}, nil
		},
		Checks: func(d deck.Deck) ([]Check, error) {
			wTheory, gTheory, err := landauEPW(d)
			if err != nil {
				return nil, err
			}
			return []Check{
				{Observable: "omega", Ref: wTheory, RelTol: 0.05,
					Note: "kinetic EPW dispersion root (internal/theory.EPWDispersion)"},
				{Observable: "gammaL", Lo: gTheory / 3, Hi: 3 * gTheory,
					Note: "pre-bounce Landau damping within 3x of the kinetic root (PIC noise + trapping onset)"},
				{Observable: "plateauFraction", Lo: 1.0 / 50, Hi: 1,
					Note: "O'Neil plateau: trapped electrons stop the damping, so the late wave power keeps ≥ 1/50 of the first peak (0.094 on 1 and 2 ranks; 6 load seeds: 0.071–0.19)"},
			}, nil
		},
	}
}

// twoStreamCase grows the cold-beam instability out of numerical noise
// and verifies the fitted growth rate against γ = ωpe/√8.
func twoStreamCase() Case {
	return Case{
		Name:  "twostream-growth",
		About: "cold counter-streaming beams: linear growth rate vs γ=ωpe/√8, saturation",
		Tier:  TierFast,
		Spec: deck.JSONConfig{
			Deck: "twostream", Steps: 1400,
			NX: 128, PPC: 64, N0: 0.2, Drift: 0.1,
		},
		Observe: func(p Probe, d deck.Deck, steps int) (Obs, error) {
			wpe := d.Notes["wpe"]
			tEnd := 120 / wpe
			var hist []sample
			for p.StepCount() < steps && p.Time() < tEnd {
				p.Step()
				if p.StepCount()%5 == 0 {
					hist = append(hist, sample{p.Time(), p.Energy().EField})
				}
			}
			gamma, amp, err := fitGrowth(hist)
			if err != nil {
				return Obs{}, err
			}
			return Obs{Scalars: map[string]float64{
				"gamma":         gamma,
				"amplification": amp,
			}}, nil
		},
		Checks: func(d deck.Deck) ([]Check, error) {
			return []Check{
				{Observable: "gamma", Ref: d.Notes["gammaMax"], RelTol: 0.35,
					Note: "cold symmetric two-stream γ=ωpe/√8; finite-uth and finite-k-grid shift the fit"},
				{Observable: "amplification", Lo: 300, Hi: math.MaxFloat64,
					Note: "field energy must rise ≥300x above the shot-noise floor (instability developed)"},
			}, nil
		},
	}
}

// weibelCase grows magnetic field from a temperature-anisotropic
// plasma and verifies the amplification and the growth-rate scale
// γ ~ ωpe·uth_hot.
func weibelCase() Case {
	return Case{
		Name:  "weibel-growth",
		About: "temperature-anisotropy Weibel: B-field amplification + growth-rate scale",
		Tier:  TierFast,
		Spec: deck.JSONConfig{
			Deck: "weibel", Steps: 1300,
			NX: 64, PPC: 256, N0: 0.2, Uth: 0.1,
		},
		Observe: func(p Probe, d deck.Deck, steps int) (Obs, error) {
			wpe := d.Notes["wpe"]
			tEnd := 250 / wpe / math.Sqrt(wpe) // deep saturation at the smoke scale
			var hist []sample
			for p.StepCount() < steps && p.Time() < tEnd {
				p.Step()
				// The deck starts with B≡0: let a few steps of noise
				// currents seed the field before pinning the floor.
				if p.StepCount() >= 10 && p.StepCount()%5 == 0 {
					hist = append(hist, sample{p.Time(), p.Energy().BField})
				}
			}
			gamma, amp, err := fitGrowth(hist)
			if err != nil {
				return Obs{}, err
			}
			return Obs{Scalars: map[string]float64{
				"gamma":         gamma,
				"amplification": amp,
			}}, nil
		},
		Checks: func(d deck.Deck) ([]Check, error) {
			gs := d.Notes["gammaScale"]
			return []Check{
				{Observable: "gamma", Lo: gs / 8, Hi: 2 * gs,
					Note: "Weibel growth within the ωpe·uth_hot scale (exact rate depends on k spectrum)"},
				{Observable: "amplification", Lo: 100, Hi: math.MaxFloat64,
					Note: "B energy must rise ≥100x above the early noise floor"},
			}, nil
		},
	}
}

// thermalConservationCase runs the uniform thermal deck across two
// ranks and bounds the total-energy drift and div-B error — the
// conservation tripwire under the full decomposed step (exchange,
// overlap, Marder cleaning all engaged).
func thermalConservationCase() Case {
	return Case{
		Name:  "thermal-conservation",
		About: "uniform thermal plasma, 2 ranks: energy drift + div-B bounds",
		Tier:  TierFast,
		Spec: deck.JSONConfig{
			Deck: "thermal", Steps: 400,
			NX: 32, PPC: 64, Ranks: 2, N0: 0.2, Uth: 0.05,
		},
		Observe: observeConservation,
		Checks: func(d deck.Deck) ([]Check, error) {
			return []Check{
				{Observable: "energyDrift", Lo: -5e-3, Hi: 5e-3,
					Note: "relative total-energy drift over the run (collisionless, no drive; measured ~1e-4)"},
				{Observable: "divBError", Lo: 0, Hi: 1e-7,
					Note: "max relative div-B error — the Yee curl preserves div B to float32 rounding (measured ~4e-9)"},
			}, nil
		},
	}
}

// srsConservationCase drives the scaled SRS deck and bounds its energy
// budget: the antenna injects energy, so the budget check is that the
// total stays finite and bounded (no numerical runaway) and the
// absorbed-energy fraction is sane — the full-tier smoke of the
// paper's production deck.
func srsConservationCase() Case {
	return Case{
		Name:  "srs-conservation",
		About: "scaled LPI/SRS deck: driven energy budget stays finite and bounded",
		Tier:  TierFull,
		Spec: deck.JSONConfig{
			Deck: "lpi", Steps: 1000,
			PPC: 64, A0: 0.05, PlateauLength: 40,
		},
		Observe: func(p Probe, d deck.Deck, steps int) (Obs, error) {
			e0 := p.Energy()
			for p.StepCount() < steps {
				p.Step()
			}
			e := p.Energy()
			lost := p.LostEnergy()
			return Obs{Scalars: map[string]float64{
				"finite":         finite01(e.Total, e.EField, e.BField, lost),
				"totalOverStart": e.Total / e0.Total,
				"lostFraction":   lost / (e.Total + lost),
				"divBError":      e.DivBError,
			}}, nil
		},
		Checks: func(d deck.Deck) ([]Check, error) {
			return []Check{
				{Observable: "finite", Lo: 0.5, Hi: 1.5,
					Note: "all energy-budget terms finite"},
				{Observable: "totalOverStart", Lo: 1, Hi: 50,
					Note: "antenna-driven total grows but must stay bounded (no runaway)"},
				{Observable: "lostFraction", Lo: 0, Hi: 0.9,
					Note: "wall losses cannot dominate the budget at this scale"},
				{Observable: "divBError", Lo: 0, Hi: 1e-7,
					Note: "div-B preserved to float32 rounding under the driven, absorbing-wall step"},
			}, nil
		},
	}
}

// tnsaCase is the flagship: the thin-target ion-acceleration benchmark
// of the EPOCH/LSP/WarpX comparison paper, at smoke scale. It extracts
// the paper's three comparison observables — maximum proton energy,
// ion energy spectrum, hot-electron temperature — and verdicts the
// hot-electron temperature against the ponderomotive scale and the
// proton cutoff against the committed baseline band.
func tnsaCase() Case {
	const (
		a0       = 5.0
		specBins = 64
		// Spectrum windows in me·c² (fixed so committed series stay
		// comparable run to run): protons/ions to ~10 MeV, electrons to
		// ~4x the a0=5 ponderomotive temperature.
		emaxIon = 20.0
		emaxEle = 12.0
	)
	return Case{
		Name:  "tnsa-ion-acceleration",
		About: "thin overdense target + proton layer: max proton energy, ion spectrum, hot-electron Te",
		Tier:  TierFast,
		Spec: deck.JSONConfig{
			Deck: "tnsa", Steps: 2200, A0: a0,
		},
		Observe: func(p Probe, d deck.Deck, steps int) (Obs, error) {
			for p.StepCount() < steps {
				p.Step()
			}
			// Species order fixed by the tnsa builder.
			const elec, ion, proton = 0, 1, 2
			thot := d.Notes["thotPond"]
			// Tail temperature: mean excess energy above a cut at a
			// quarter of the ponderomotive scale isolates the hot
			// population from the (preheated) bulk.
			hotTe, hotW := p.TailKE(elec, thot/4)
			maxP := p.MaxKE(proton)
			maxI := p.MaxKE(ion)
			e := p.Energy()
			obs := Obs{
				Scalars: map[string]float64{
					"maxProtonMeV":  maxP * units.MeVPerMc2,
					"maxIonMeV":     maxI * units.MeVPerMc2,
					"hotTe":         hotTe,
					"hotTeOverPond": hotTe / thot,
					"hotWeight":     hotW,
					"finite":        finite01(e.Total, p.LostEnergy(), maxP, hotTe),
				},
				Series: map[string][]float64{
					"protonSpectrum":   p.SpectrumKE(proton, emaxIon, specBins),
					"ionSpectrum":      p.SpectrumKE(ion, emaxIon, specBins),
					"electronSpectrum": p.SpectrumKE(elec, emaxEle, specBins),
				},
			}
			return obs, nil
		},
		Checks: func(d deck.Deck) ([]Check, error) {
			thot := d.Notes["thotPond"]
			if thot <= 0 {
				return nil, fmt.Errorf("valid: tnsa deck carries no ponderomotive note")
			}
			return []Check{
				{Observable: "hotTeOverPond", Lo: 0.25, Hi: 4,
					Note: "hot-electron Te within 4x of the Wilks ponderomotive scale sqrt(1+a0²/2)−1 (comparison-paper codes span ~2x)"},
				{Observable: "maxProtonMeV", Lo: 0.5, Hi: 30,
					Note: "proton cutoff energy band at smoke scale (committed baseline; comparison paper: MeV-scale cutoffs)"},
				{Observable: "finite", Lo: 0.5, Hi: 1.5,
					Note: "energy budget and observables finite"},
			}, nil
		},
	}
}

// dispersionCase lets a thermal plasma's own noise populate its
// Langmuir branch and reads the branch frequency off the k–ω
// spectrogram of the plane-averaged Ex at modes 2–5, against the
// kinetic dispersion root — a first-principles check that the discrete
// plasma supports the modes the LPI analysis assumes. The 4×4
// transverse planes at ppc 32 hold 512 particles per x-plane.
func dispersionCase() Case {
	const (
		steps   = 1024
		n0, uth = 0.2, 0.1
	)
	modes := []int{2, 3, 4, 5}
	// kinetic returns the spectrogram's frequency bin and the kinetic
	// EPW root at each mode.
	kinetic := func(d deck.Deck) (dw float64, w []float64, err error) {
		dk := 2 * math.Pi / (float64(fft.NextPow2(d.Cfg.NX)) * d.Cfg.DX)
		dw = 2 * math.Pi / (float64(fft.NextPow2(steps)) * d.Cfg.DT)
		for _, m := range modes {
			root, err := theory.EPWDispersion(float64(m)*dk, n0, uth*uth)
			if err != nil {
				return 0, nil, err
			}
			w = append(w, real(root))
		}
		return dw, w, nil
	}
	return Case{
		Name:  "langmuir-dispersion",
		About: "thermal-noise k–ω spectrogram: Langmuir ridge at modes 2–5 vs the kinetic root",
		Tier:  TierFast,
		Spec: deck.JSONConfig{
			Deck: "thermal", Steps: steps,
			NX: 64, PPC: 32, N0: n0, Uth: uth,
		},
		Observe: func(p Probe, d deck.Deck, steps int) (Obs, error) {
			sg := diag.NewSpectrogram(d.Cfg.NX, d.Cfg.DX, d.Cfg.DT)
			for p.StepCount() < steps {
				p.Step()
				if err := sg.Add(p.LineOutEx()); err != nil {
					return Obs{}, err
				}
			}
			power, _, dw, err := sg.Compute()
			if err != nil {
				return Obs{}, err
			}
			_, wKin, err := kinetic(d)
			if err != nil {
				return Obs{}, err
			}
			obs := Obs{Scalars: map[string]float64{}, Series: map[string][]float64{"omegaKinetic": wKin}}
			// The kinetic root never lies below ωpe = √n0: search from
			// one bin under it.
			wMin := math.Sqrt(n0) - dw
			for i, m := range modes {
				w := sg.RidgeFrequency(power, dw, m, wMin)
				obs.Series["omegaRidge"] = append(obs.Series["omegaRidge"], w)
				obs.Scalars[fmt.Sprintf("errPct%d", m)] = 100 * (w - wKin[i]) / wKin[i]
			}
			return obs, nil
		},
		Checks: func(d deck.Deck) ([]Check, error) {
			dw, wKin, err := kinetic(d)
			if err != nil {
				return nil, err
			}
			var checks []Check
			for i, m := range modes {
				bin := 100 * dw / wKin[i]
				checks = append(checks, Check{Observable: fmt.Sprintf("errPct%d", m), Lo: -bin, Hi: bin,
					Note: fmt.Sprintf("ridge, searched from ωpe − dω up, within one spectrogram bin dω = %.4f of the kinetic EPW root, the record's resolution (140 load seeds × 1 and 2 ranks: without the floor, bin-1 leakage won 8 and 9 seeds; with it, 139 and 138 pass, the misses 1.10–1.12 bins off on the next bin)", dw)})
			}
			return checks, nil
		},
	}
}

// srsSpec is the scaled SRS deck of the LPI cases at pump strength a0:
// n = 0.1 ncr, Te = 2.6 keV (kλD ≈ 0.33), a 40 c/ω0 plateau, ppc 128
// and dx = 0.25 c/ω0 = 1.1 λD, with a counter-propagating seed at
// SeedA0 = a0/30. The step budget carries every case past the end of
// its reflectivity window (t = 560 at dt = 0.224 is 2501 steps).
func srsSpec(a0 float64) deck.JSONConfig {
	return deck.JSONConfig{Deck: "lpi", Steps: 2600, PPC: 128, A0: a0, PlateauLength: 40}
}

// srsWindowEnd is when the reflectivity window of an LPI deck closes:
// several EPW response times 1/νL after both waves have crossed the box,
// so burst peaks and detuned valleys are both averaged in.
func srsWindowEnd(d deck.Deck) float64 { return math.Max(500, 2*d.Notes["total"]+150) }

// runSRS steps an LPI deck to tEnd, recording the probe plane's fluxes
// once the transient is over (both waves across the box, ramps done);
// each, when set, runs after every step.
func runSRS(p Probe, d deck.Deck, steps int, tEnd float64, each func()) (*diag.Reflectometer, error) {
	tStart := d.Notes["total"] + 60
	refl := &diag.Reflectometer{}
	for p.Time() < tEnd {
		if p.StepCount() >= steps {
			return nil, fmt.Errorf("valid: %d steps end at t=%.1f, before the window closes at t=%.1f", steps, p.Time(), tEnd)
		}
		p.Step()
		if p.Time() > tStart {
			fw, bw, back := p.PlaneFlux(d.Notes["probeX"])
			refl.Add(p.Time(), fw, bw, back)
		}
		if each != nil {
			each()
		}
	}
	return refl, nil
}

// reflectivityCase is one point of the paper's parameter study (E7):
// backscatter reflectivity at pump strength a0, measured against the
// seed's no-gain floor Rfloor = (SeedA0/a0)² and the linear
// convective-gain prediction Rlinear.
func reflectivityCase(name, about string, a0 float64, checks []Check) Case {
	return Case{
		Name: name, About: about, Tier: TierFast,
		Spec: srsSpec(a0),
		Observe: func(p Probe, d deck.Deck, steps int) (Obs, error) {
			refl, err := runSRS(p, d, steps, srsWindowEnd(d), nil)
			if err != nil {
				return Obs{}, err
			}
			r := refl.Reflectivity()
			return Obs{Scalars: map[string]float64{
				"R":           r,
				"Rburst":      refl.MaxWindowed(50),
				"rOverFloor":  r / d.Notes["Rfloor"],
				"rOverLinear": r / d.Notes["Rlinear"],
			}}, nil
		},
		Checks: func(d deck.Deck) ([]Check, error) { return checks, nil },
	}
}

// srsSeedFloorCase: below the inflation threshold (a0 = 0.01) SRS has
// no gain to speak of, and the measured reflectivity is the seed's own.
func srsSeedFloorCase() Case {
	return reflectivityCase("srs-seed-floor",
		"E7 below threshold: SRS reflectivity at the seed floor (a0 0.01, ppc 128, dx 1.1 λD)", 0.01,
		[]Check{{Observable: "rOverFloor", Lo: 1, Hi: 1.5,
			Note: "no gain below threshold: R is the seed's (SeedA0/a0)² plus noise backscatter (6 load seeds: 1.12–1.25)"}})
}

// srsInflationCase: above threshold (a0 = 0.10) the reflectivity rises
// more than an order of magnitude over the seed floor, yet stays far
// below the unsaturated linear gain — trapping saturates the EPW.
func srsInflationCase() Case {
	return reflectivityCase("srs-inflation",
		"E7 above threshold: R ≫ seed floor but ≪ linear gain (a0 0.10, ppc 128, dx 1.1 λD)", 0.10,
		[]Check{
			{Observable: "rOverFloor", Lo: 10, Hi: math.MaxFloat64,
				Note: "SRS gain lifts R more than an order of magnitude over the seed floor (6 load seeds: 23.6–27.5)"},
			{Observable: "rOverLinear", Lo: 0, Hi: 0.2,
				Note: "trapping keeps R below the unsaturated convective-gain prediction (6 load seeds: 0.035–0.041)"},
		})
}

// srsTrappingCase runs one a0 = 0.07 deck past the reflectivity window
// and reads two things off it: the electron distribution flattened at
// the EPW phase velocity once the burst is over (E8: f(u_phi) over the
// Maxwellian fitted to the bulk, which is 1 for an untouched plasma),
// and the backscatter line at the Raman-matched ωs (E9).
func srsTrappingCase() Case {
	const a0, bins = 0.07, 160
	return Case{
		Name:  "srs-trapping",
		About: "E8+E9: trapping plateau at u_phi, Raman-matched backscatter line (a0 0.07, ppc 128, dx 1.1 λD)",
		Tier:  TierFast,
		Spec:  srsSpec(a0),
		Observe: func(p Probe, d deck.Deck, steps int) (Obs, error) {
			vphi := (1 - d.Notes["ws"]) / d.Notes["ke"]
			uphi := vphi / math.Sqrt(1-vphi*vphi)
			uth := math.Sqrt(deck.DefaultLPI(a0).Te)
			total := d.Notes["total"]
			xmin, xmax := total*0.25, total*0.75 // the plateau region
			umin, umax := -4*uphi, 4*uphi
			plateau := func() float64 {
				return diag.PlateauMetric(p.DistUx(0, xmin, xmax, umin, umax, bins), umin, umax, uth, uphi)
			}
			p0 := plateau()
			tBurst, p1 := 2*total+150, math.NaN()
			refl, err := runSRS(p, d, steps, srsWindowEnd(d)+60, func() {
				if math.IsNaN(p1) && p.Time() >= tBurst {
					p1 = plateau()
				}
			})
			if err != nil {
				return Obs{}, err
			}
			return Obs{Scalars: map[string]float64{
				"plateauStart":    p0,
				"plateauEnd":      p1,
				"R":               refl.Reflectivity(),
				"burstiness":      refl.Burstiness(),
				"omegaBackOverWs": refl.DominantFrequency() / d.Notes["ws"],
			}}, nil
		},
		Checks: func(d deck.Deck) ([]Check, error) {
			return []Check{
				{Observable: "plateauEnd", Lo: 3, Hi: math.MaxFloat64,
					Note: "trapping lifts f(u_phi) to ≥ 3× the fitted Maxwellian, which is 1 by construction (6 load seeds: 4.4–9.4); plateauStart is the t = 0 bin, 0–2 macro-particles, and is not gated"},
				{Observable: "omegaBackOverWs", Ref: 1, RelTol: 0.03,
					Note: "backscatter line at the Raman-matched ωs of theory.MatchSRS; one FFT bin is 2.2% of ωs"},
			}, nil
		},
	}
}

// observeConservation is the shared undriven-deck extractor: max
// |relative total-energy drift| and max div-B error over the run.
func observeConservation(p Probe, d deck.Deck, steps int) (Obs, error) {
	e0 := p.Energy()
	if e0.Total <= 0 {
		return Obs{}, fmt.Errorf("valid: initial energy %g not positive", e0.Total)
	}
	var maxDrift, maxDivB float64
	for p.StepCount() < steps {
		p.Step()
		if p.StepCount()%10 == 0 {
			e := p.Energy()
			drift := math.Abs(e.Total-e0.Total) / e0.Total
			maxDrift = math.Max(maxDrift, drift)
			maxDivB = math.Max(maxDivB, e.DivBError)
		}
	}
	return Obs{Scalars: map[string]float64{
		"energyDrift": maxDrift,
		"divBError":   maxDivB,
	}}, nil
}
