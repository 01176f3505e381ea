// Package loader fills particle buffers with plasma. Loading is
// decomposition-invariant: every cell of the *global* mesh draws its
// particles from an RNG stream keyed by (seed, global cell id), so a run
// produces bit-identical initial particles whether it is decomposed over
// 1 rank or 64 — the property the multi-rank equivalence tests rely on
// and a practical requirement for debugging at scale.
package loader

import (
	"fmt"
	"math"

	"govpic/internal/grid"
	"govpic/internal/particle"
	"govpic/internal/rng"
)

// Profile maps a global position to electron density in critical-density
// units.
type Profile func(x, y, z float64) float64

// Uniform returns a flat profile.
func Uniform(n0 float64) Profile {
	return func(x, y, z float64) float64 { return n0 }
}

// Slab returns a profile that is n0 on [x0+ramp, x1−ramp], zero outside
// [x0, x1], with linear ramps of the given length at both ends — the
// standard LPI slab-with-vacuum-buffers shape.
func Slab(n0, x0, x1, ramp float64) Profile {
	return func(x, y, z float64) float64 {
		switch {
		case x < x0 || x > x1:
			return 0
		case x < x0+ramp:
			return n0 * (x - x0) / ramp
		case x > x1-ramp:
			return n0 * (x1 - x) / ramp
		default:
			return n0
		}
	}
}

// Global describes the global mesh (origin 0) so ranks can derive
// global cell ids from their local tiles' origins.
type Global struct {
	NX, NY, NZ int
}

// Params configures one species' load.
type Params struct {
	Profile Profile
	// PPC is the number of macro-particles per cell at reference density
	// Nref; cells at other densities get the same PPC with scaled weight
	// (uniform loading), keeping per-cell counts deterministic.
	PPC int
	// Nref is the reference density for the weight normalization; cells
	// with Profile == Nref get weight Nref·Vc/PPC per particle.
	Nref float64
	// Uth is the per-component thermal momentum spread sqrt(T/mc²).
	Uth [3]float64
	// Drift is a momentum-space offset added to every particle.
	Drift [3]float64
	// Seed selects the load realization; StreamSalt separates species
	// sharing a seed.
	Seed       uint64
	StreamSalt int
}

// Load fills buf with plasma over the local grid g embedded in the
// global mesh gl. It returns the number of particles loaded. Cells where
// the profile is ≤ 0 at the cell center load nothing.
func Load(g *grid.Grid, gl Global, p Params, buf *particle.Buffer) (int, error) {
	if p.PPC < 1 {
		return 0, fmt.Errorf("loader: PPC %d must be ≥1", p.PPC)
	}
	if p.Nref <= 0 {
		return 0, fmt.Errorf("loader: Nref %g must be >0", p.Nref)
	}
	gx0 := int(math.Round(g.X0 / g.DX))
	gy0 := int(math.Round(g.Y0 / g.DY))
	gz0 := int(math.Round(g.Z0 / g.DZ))
	wRef := p.Nref * g.Volume() / float64(p.PPC)
	loaded := 0
	for iz := 1; iz <= g.NZ; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			for ix := 1; ix <= g.NX; ix++ {
				cx, cy, cz := g.CellCenter(ix, iy, iz)
				if p.Profile(cx, cy, cz) <= 0 {
					continue
				}
				gid := (gx0 + ix - 1) + gl.NX*((gy0+iy-1)+gl.NY*(gz0+iz-1))
				src := rng.New(p.Seed, gid*64+p.StreamSalt)
				v := int32(g.Voxel(ix, iy, iz))
				for n := 0; n < p.PPC; n++ {
					dx := float32(src.Uniform(-1, 1))
					dy := float32(src.Uniform(-1, 1))
					dz := float32(src.Uniform(-1, 1))
					px, py, pz := g.Position(int(v), dx, dy, dz)
					dens := p.Profile(px, py, pz)
					if dens <= 0 {
						continue
					}
					buf.Append(particle.Particle{
						Dx: dx, Dy: dy, Dz: dz, Voxel: v,
						Ux: float32(p.Drift[0] + src.Maxwellian(p.Uth[0])),
						Uy: float32(p.Drift[1] + src.Maxwellian(p.Uth[1])),
						Uz: float32(p.Drift[2] + src.Maxwellian(p.Uth[2])),
						W:  float32(wRef * dens / p.Nref),
					})
					loaded++
				}
			}
		}
	}
	return loaded, nil
}

// LoadNeutralizing loads an ion species exactly co-located with already
// loaded electrons so the initial plasma is neutral cell by cell: each
// ion sits at an electron's position, at rest apart from its own thermal
// spread, with weight w_e/z. electrons must be the buffer produced by
// Load; z is the ion charge state.
func LoadNeutralizing(electrons *particle.Buffer, z float64, uth [3]float64, seed uint64, buf *particle.Buffer) error {
	if z <= 0 {
		return fmt.Errorf("loader: ion charge state %g must be >0", z)
	}
	src := rng.New(seed, 777)
	for i := 0; i < electrons.N(); i++ {
		e := electrons.At(i)
		buf.Append(particle.Particle{
			Dx: e.Dx, Dy: e.Dy, Dz: e.Dz, Voxel: e.Voxel,
			Ux: float32(src.Maxwellian(uth[0])),
			Uy: float32(src.Maxwellian(uth[1])),
			Uz: float32(src.Maxwellian(uth[2])),
			W:  e.W / float32(z),
		})
	}
	return nil
}
