// Package deck builds ready-to-run simulation configurations ("input
// decks", in VPIC's vocabulary): the laser-plasma-interaction workload
// of the paper's parameter study plus the classic kinetic validation
// problems (plasma oscillation, Landau damping, two-stream, Weibel) and
// the synthetic thermal-plasma workloads the performance experiments
// use.
package deck

import (
	"fmt"
	"io"
	"math"

	"govpic/internal/core"
	"govpic/internal/loader"
	"govpic/internal/mp"
	"govpic/internal/push"
)

// Deck bundles a configuration with an optional post-initialization
// setup and derived quantities useful to the caller.
type Deck struct {
	Name string
	Cfg  core.Config
	// Setup, when set, finishes one rank's tile after it is built and
	// initialized (a velocity perturbation on the loaded particles, a
	// wall model on the kernels). It is local — it sees only that rank
	// and must not communicate — so the deck runs unchanged on any
	// world: New applies it to every rank, NewRank to the member's own,
	// and ResumeRank to the member's tile before it reads its payload,
	// where a perturbation meets no particle and a wall model stays.
	Setup func(*core.Rank) error
	// Notes carries derived numbers (ωpe, expected rates, probe
	// positions...) keyed by short names.
	Notes map[string]float64
}

// New builds the deck's lockstep simulation — all ranks in this
// process, the world cmd/bench and the tests step — and applies its
// setup to every rank. Programs run a deck's members (dist).
func (d *Deck) New() (*core.Simulation, error) {
	s, err := core.New(d.Cfg)
	if err != nil {
		return nil, err
	}
	for _, rk := range s.Ranks {
		if err := d.setup(rk); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// NewRank builds this process's member of the deck's world on comm and
// applies the setup to its rank. Collective: every rank of the world
// must call it concurrently (core.NewRankSim).
func (d *Deck) NewRank(comm *mp.Comm) (*core.RankSim, error) {
	rs, err := core.NewRankSim(d.Cfg, comm)
	if err != nil {
		return nil, err
	}
	return rs, d.setup(rs.Rank)
}

// ResumeRank builds this process's member of the deck's world from the
// checkpoint r holds (rank 0 alone reads it) and applies the setup to
// the member's tile before the read. Collective: every rank of the
// world must call it concurrently (core.ResumeRankSim).
func (d *Deck) ResumeRank(comm *mp.Comm, r io.Reader) (*core.RankSim, error) {
	return core.ResumeRankSim(d.Cfg, comm, r, d.setup)
}

func (d *Deck) setup(rk *core.Rank) error {
	if d.Setup == nil {
		return nil
	}
	return d.Setup(rk)
}

var allWrap = [6]push.Action{push.Wrap, push.Wrap, push.Wrap, push.Wrap, push.Wrap, push.Wrap}

// Thermal returns a uniform periodic thermal plasma — the synthetic
// workload of the performance experiments (every cell equally loaded,
// no collective dynamics beyond noise).
func Thermal(nx, ny, nz, ppc, nRanks int, n0, uth float64) Deck {
	cfg := core.Config{
		NX: nx, NY: ny, NZ: nz,
		DX: 0.5, DY: 0.5, DZ: 0.5,
		NRanks:     nRanks,
		ParticleBC: allWrap,
		Species: []core.SpeciesConfig{{
			Name: "electron", Q: -1, M: 1, SortInterval: 20,
			Load: &loader.Params{
				Profile: loader.Uniform(n0), PPC: ppc, Nref: n0,
				Uth: [3]float64{uth, uth, uth}, Seed: 20080415,
			},
		}},
		NeutralizingBackground: true,
	}
	cfg.DT = cfg.CourantDT(0.7)
	return Deck{
		Name:  "thermal",
		Cfg:   cfg,
		Notes: map[string]float64{"wpe": math.Sqrt(n0)},
	}
}

// Spike returns a periodic thermal plasma whose density is a narrow
// truncated-Gaussian filament in x — the imbalance-adversarial workload
// for the dynamic load balancer. Cells beyond 3σ of the filament center
// are vacuum and load no macro-particles, so nearly every particle
// lives in the ~6σ of planes around 0.6·Lx: a static uniform x-split
// leaves one rank owning almost the whole push while its peers idle
// (max/mean approaches the rank count). Physics-wise it is just a warm
// filament — no drive, no instability on smoke-test timescales — so
// balanced and static runs must agree on the energy history.
func Spike(nx, ny, nz, ppc, nRanks int, n0, uth float64) Deck {
	cfg := core.Config{
		NX: nx, NY: ny, NZ: nz,
		DX: 0.5, DY: 0.5, DZ: 0.5,
		NRanks:     nRanks,
		ParticleBC: allWrap,
		Species: []core.SpeciesConfig{{
			Name: "electron", Q: -1, M: 1, SortInterval: 20,
			Load: &loader.Params{
				Profile: spikeProfile(n0, 0.6*float64(nx)*0.5, 0.03*float64(nx)*0.5),
				PPC:     ppc, Nref: n0,
				Uth: [3]float64{uth, uth, uth}, Seed: 20080415,
			},
		}},
		NeutralizingBackground: true,
	}
	cfg.DT = cfg.CourantDT(0.7)
	return Deck{
		Name:  "spike",
		Cfg:   cfg,
		Notes: map[string]float64{"wpe": math.Sqrt(n0)},
	}
}

// spikeProfile is a truncated Gaussian filament: n0·exp(−½d²) for
// d = (x−xc)/σ within 3σ, vacuum outside.
func spikeProfile(n0, xc, sigma float64) loader.Profile {
	return func(x, y, z float64) float64 {
		d := (x - xc) / sigma
		if d*d > 9 {
			return 0
		}
		return n0 * math.Exp(-0.5*d*d)
	}
}

// PlasmaOscillation returns a cold quasi-1D plasma ringing at ωpe: the
// quickstart example.
func PlasmaOscillation(nx, ppc int, n0 float64) Deck {
	cfg := core.Config{
		NX: nx, NY: 1, NZ: 1,
		DX: 0.5, DY: 1, DZ: 1,
		NRanks:     1,
		ParticleBC: allWrap,
		Species: []core.SpeciesConfig{{
			Name: "electron", Q: -1, M: 1, SortInterval: 20,
			Load: &loader.Params{
				Profile: loader.Uniform(n0), PPC: ppc, Nref: n0,
				Uth: [3]float64{0.0005, 0.0005, 0.0005}, Seed: 7,
			},
		}},
		NeutralizingBackground: true,
	}
	cfg.DT = cfg.CourantDT(0.5)
	d := Deck{
		Name:  "plasma-oscillation",
		Cfg:   cfg,
		Notes: map[string]float64{"wpe": math.Sqrt(n0)},
	}
	d.Setup = func(rk *core.Rank) error {
		return PerturbVelocity(rk, 0, 0.01, 1)
	}
	return d
}

// TwoStream returns two symmetric counter-streaming cold electron beams
// (each density n0/2, drift ±v0): the textbook kinetic instability. The
// fastest mode grows at γ ≈ 0.35·ωpe (cold symmetric beams).
func TwoStream(nx, ppc int, n0, u0 float64) Deck {
	cfg := core.Config{
		NX: nx, NY: 1, NZ: 1,
		DX: 0.5, DY: 1, DZ: 1,
		NRanks:     1,
		ParticleBC: allWrap,
		Species: []core.SpeciesConfig{
			{
				Name: "beam+", Q: -1, M: 1, SortInterval: 25,
				Load: &loader.Params{
					Profile: loader.Uniform(n0 / 2), PPC: ppc, Nref: n0 / 2,
					Uth: [3]float64{0.001, 0.001, 0.001}, Drift: [3]float64{u0, 0, 0}, Seed: 31,
				},
			},
			{
				Name: "beam-", Q: -1, M: 1, SortInterval: 25,
				Load: &loader.Params{
					Profile: loader.Uniform(n0 / 2), PPC: ppc, Nref: n0 / 2,
					Uth: [3]float64{0.001, 0.001, 0.001}, Drift: [3]float64{-u0, 0, 0}, Seed: 32,
				},
			},
		},
		NeutralizingBackground: true,
	}
	cfg.DT = cfg.CourantDT(0.5)
	wpe := math.Sqrt(n0)
	return Deck{
		Name: "two-stream",
		Cfg:  cfg,
		Notes: map[string]float64{
			"wpe":       wpe,
			"gammaMax":  wpe / math.Sqrt(8), // cold symmetric two-stream
			"kFastest":  math.Sqrt(3.0/8.0) * wpe / u0,
			"driftBeta": u0 / math.Sqrt(1+u0*u0),
		},
	}
}

// Weibel returns a temperature-anisotropic electron plasma
// (T⊥ ≫ T∥ along x) whose Weibel instability grows magnetic field from
// noise.
func Weibel(nx, ppc int, n0, uthHot, uthCold float64) Deck {
	cfg := core.Config{
		NX: nx, NY: 1, NZ: 1,
		DX: 0.5, DY: 1, DZ: 1,
		NRanks:     1,
		ParticleBC: allWrap,
		Species: []core.SpeciesConfig{{
			Name: "electron", Q: -1, M: 1, SortInterval: 25,
			Load: &loader.Params{
				Profile: loader.Uniform(n0), PPC: ppc, Nref: n0,
				// Hot transverse (y), cold along x and z.
				Uth: [3]float64{uthCold, uthHot, uthCold}, Seed: 41,
			},
		}},
		NeutralizingBackground: true,
	}
	cfg.DT = cfg.CourantDT(0.5)
	wpe := math.Sqrt(n0)
	return Deck{
		Name: "weibel",
		Cfg:  cfg,
		Notes: map[string]float64{
			"wpe": wpe,
			// Maximum growth rate scale for strong anisotropy.
			"gammaScale": wpe * uthHot,
		},
	}
}

// Landau returns a warm plasma with a standing Langmuir-wave velocity
// perturbation at mode m, for measuring collisionless (Landau) damping
// against the kinetic dispersion solver.
func Landau(nx, ppc, mode int, n0, uth, amp float64) Deck {
	cfg := core.Config{
		NX: nx, NY: 1, NZ: 1,
		DX: 0.5, DY: 1, DZ: 1,
		NRanks:     1,
		ParticleBC: allWrap,
		Species: []core.SpeciesConfig{{
			Name: "electron", Q: -1, M: 1, SortInterval: 20,
			Load: &loader.Params{
				Profile: loader.Uniform(n0), PPC: ppc, Nref: n0,
				Uth: [3]float64{uth, uth, uth}, Seed: 51,
			},
		}},
		NeutralizingBackground: true,
	}
	cfg.DT = cfg.CourantDT(0.4)
	lx := float64(nx) * cfg.DX
	k := 2 * math.Pi * float64(mode) / lx
	wpe := math.Sqrt(n0)
	d := Deck{
		Name: "landau",
		Cfg:  cfg,
		Notes: map[string]float64{
			"wpe": wpe,
			"k":   k,
			"kLD": k * uth / wpe,
		},
	}
	d.Setup = func(rk *core.Rank) error {
		return PerturbVelocity(rk, 0, amp, mode)
	}
	return d
}

// PerturbVelocity adds ux += amp·sin(2π·mode·x/Lx) to every particle of
// the species on this rank, x and Lx being global — the standard
// standing-wave seed, applied rank by rank.
func PerturbVelocity(rk *core.Rank, speciesIdx int, amp float64, mode int) error {
	if speciesIdx < 0 || speciesIdx >= len(rk.Species) {
		return fmt.Errorf("deck: species index %d out of range", speciesIdx)
	}
	g := rk.D.G
	lx := float64(rk.D.Cfg.Layout.Dec.GNX) * g.DX
	k := 2 * math.Pi * float64(mode) / lx
	buf := rk.Species[speciesIdx].Buf
	for i := 0; i < buf.N(); i++ {
		p := buf.At(i)
		x, _, _ := g.Position(int(p.Voxel), p.Dx, p.Dy, p.Dz)
		p.Ux += float32(amp * math.Sin(k*x))
		buf.Set(i, p)
	}
	return nil
}
