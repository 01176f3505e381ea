package valid

import (
	"math"

	"govpic/internal/core"
	"govpic/internal/diag"
)

// Probe is the observable surface a case measures through: one member
// of a world (core.RankSim) plus the physics extractors the cases need.
// Step, StepCount, Time, Energy, LostEnergy and TotalParticles are the
// member's own; the extractors below reduce each rank's share through
// the member's communicator. Everything global is a collective, so all
// members must call the same probe methods in the same order (the usual
// SPMD contract) — which RunCase guarantees by running the case's
// Observe on every member.
type Probe struct {
	*core.RankSim
}

// NewProbe wraps one member of a world in the observable surface; tests
// extract spectra and tail temperatures through the same code the
// validation cases use (core.Collect reaches the members of an
// in-process Simulation).
func NewProbe(rs *core.RankSim) Probe { return Probe{rs} }

// kineticEnergy returns m(γ−1) for normalized momentum components.
func kineticEnergy(m float64, ux, uy, uz float32) float64 {
	u2 := float64(ux)*float64(ux) + float64(uy)*float64(uy) + float64(uz)*float64(uz)
	// γ−1 = u²/(γ+1) is exact and avoids cancellation for cold particles.
	gamma := math.Sqrt(1 + u2)
	return m * u2 / (gamma + 1)
}

// ModeProjectEx projects Ex onto sin(2π·mode·x/Lx) over the global box
// — the standing Langmuir-wave amplitude of the seeded decks.
func (p Probe) ModeProjectEx(mode int) float64 {
	lx := float64(p.Cfg.NX) * p.Cfg.DX
	re := modeProjectLocal(p.Rank, mode, lx)
	return p.Comm().AllreduceSum(re) * 2 / float64(p.Cfg.NX)
}

// SpectrumKE histograms species sp's kinetic energy (me·c² units,
// weighted by particle weight) into bins over [0, emax]; overflow lands
// in the last bin.
func (p Probe) SpectrumKE(sp int, emax float64, bins int) []float64 {
	hist := make([]float64, bins)
	spectrumLocal(p.Rank, sp, emax, hist)
	return p.Comm().AllreduceSumF64s(hist)
}

// MaxKE is the global maximum kinetic energy of species sp in me·c²
// units.
func (p Probe) MaxKE(sp int) float64 {
	return p.Comm().AllreduceMax(maxKELocal(p.Rank, sp))
}

// TailKE returns the weighted mean excess energy ⟨KE − cut⟩ and total
// weight of species sp particles with KE > cut: for an exponential
// (Maxwellian) tail dN/dE ∝ exp(−E/T) the mean excess IS the tail
// temperature T.
func (p Probe) TailKE(sp int, cut float64) (mean, weight float64) {
	var sums [2]float64
	tailLocal(p.Rank, sp, cut, &sums)
	g := p.Comm().AllreduceSumF64s(sums[:])
	if g[0] == 0 {
		return 0, 0
	}
	return g[1] / g[0], g[0]
}

// modeProjectLocal accumulates this rank's share of the global Ex mode
// projection; the local grid's X0 places its line-out in global x.
func modeProjectLocal(rk *core.Rank, mode int, lx float64) float64 {
	g := rk.D.G
	line := diag.LineOutEx(rk.D.F, 1, 1)
	var re float64
	for i, v := range line {
		x := g.X0 + (float64(i)+0.5)*g.DX
		re += v * math.Sin(2*math.Pi*float64(mode)*x/lx)
	}
	return re
}

func spectrumLocal(rk *core.Rank, sp int, emax float64, hist []float64) {
	s := rk.Species[sp]
	buf, m := s.Buf, s.M
	n := len(hist)
	for i := 0; i < buf.N(); i++ {
		pt := buf.At(i)
		ke := kineticEnergy(m, pt.Ux, pt.Uy, pt.Uz)
		b := int(ke / emax * float64(n))
		if b >= n {
			b = n - 1
		}
		hist[b] += float64(pt.W)
	}
}

func maxKELocal(rk *core.Rank, sp int) float64 {
	s := rk.Species[sp]
	buf, m := s.Buf, s.M
	var mx float64
	for i := 0; i < buf.N(); i++ {
		pt := buf.At(i)
		if ke := kineticEnergy(m, pt.Ux, pt.Uy, pt.Uz); ke > mx {
			mx = ke
		}
	}
	return mx
}

func tailLocal(rk *core.Rank, sp int, cut float64, sums *[2]float64) {
	s := rk.Species[sp]
	buf, m := s.Buf, s.M
	for i := 0; i < buf.N(); i++ {
		pt := buf.At(i)
		if ke := kineticEnergy(m, pt.Ux, pt.Uy, pt.Uz); ke > cut {
			sums[0] += float64(pt.W)
			sums[1] += float64(pt.W) * (ke - cut)
		}
	}
}
