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

// PlaneFlux returns the forward flux, backward flux and signed backward
// field averaged over the global x-node plane at x (diag.PoyntingSplit):
// the ranks holding a share of the plane contribute its sums, and one
// reduction of sums plus cell count averages them. All zero when x is
// outside the box. B's ghosts are refreshed first: a plane on a tile's
// first node reads B's plane 0, filled before the step's second B half.
func (p Probe) PlaneFlux(x float64) (forward, backward, backField float64) {
	p.Rank.D.ExchangeGhostB()
	var sums [4]float64
	if d := p.Rank.D; x >= d.G.X0 && x < d.G.X0+float64(d.G.NX)*d.G.DX {
		fw, bw, back, n := diag.PoyntingSplit(d.F, 1+int((x-d.G.X0)/d.G.DX))
		sums = [4]float64{fw, bw, back, float64(n)}
	}
	g := p.Comm().AllreduceSumF64s(sums[:])
	if g[3] == 0 {
		return 0, 0, 0
	}
	return g[0] / g[3], g[1] / g[3], g[2] / g[3]
}

// DistUx histograms species sp's x-momentum over the global x window
// [xmin, xmax), weighted, in bins over [umin, umax) (diag.DistUx summed
// over the world).
func (p Probe) DistUx(sp int, xmin, xmax, umin, umax float64, bins int) []float64 {
	rk := p.Rank
	h := diag.DistUx(rk.D.G, rk.Species[sp].Buf, xmin, xmax, umin, umax, bins)
	return p.Comm().AllreduceSumF64s(h)
}

// LineOutEx returns Ex along the global x axis, each value the average
// over its x-plane's transverse cells — the Langmuir field of a
// quasi-1D plasma with the transverse noise averaged out.
func (p Probe) LineOutEx() []float64 {
	d := p.Rank.D
	g := d.G
	gx0, _, _ := d.Cfg.Layout.Origin(d.Rank)
	line := make([]float64, p.Cfg.NX)
	for iz := 1; iz <= g.NZ; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			for ix := 1; ix <= g.NX; ix++ {
				line[gx0+ix-1] += float64(d.F.Ex[g.Voxel(ix, iy, iz)])
			}
		}
	}
	line = p.Comm().AllreduceSumF64s(line)
	cells := float64(p.Cfg.NY * p.Cfg.NZ)
	for i := range line {
		line[i] /= cells
	}
	return line
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
