// Package loader fills particle buffers with plasma. Loading is
// decomposition-invariant: every cell of the *global* mesh draws its
// particles from an RNG stream keyed by (seed, global cell id), so a run
// produces bit-identical initial particles whether it is decomposed over
// 1 rank or 64 — the property the multi-rank equivalence tests rely on
// and a practical requirement for debugging at scale.
//
// A load's output is in voxel order, cell by cell, and the same bytes at
// every worker count: the pool only decides which goroutine writes a
// cell range, never where its particles land. So a freshly loaded
// species needs no sort. Ranges load concurrently, so a Profile must be
// safe for concurrent calls; every profile in internal/deck is a pure
// closure.
package loader

import (
	"fmt"
	"math"

	"govpic/internal/grid"
	"govpic/internal/particle"
	"govpic/internal/pipe"
	"govpic/internal/rng"
)

// Profile maps a global position to electron density in critical-density
// units. It must be a pure function, safe for concurrent calls: Load
// calls it from every range task, and twice per cell center.
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

// Load appends plasma over the local grid g, embedded in the global
// mesh gl, to buf and returns the number of particles loaded. Cells
// where the profile is ≤ 0 at the cell center load nothing.
//
// The tile's interior cells, in voxel order, are split into
// pipe.NumBlocks contiguous ranges (bounds that depend on the tile
// alone). A first pass bounds each range's count by PPC per cell whose
// center is inside the plasma, which gives each range its offset; buf
// is sized once to the total, and every range writes its particles in
// place at its offset as one task of pool (nil runs them inline). A
// range that came up short — a particle past a ramp's edge is dropped —
// is moved down over the hole afterwards, so the output is in cell
// order, the same at every worker count, and a uniform load copies
// nothing.
func Load(g *grid.Grid, gl Global, p Params, pool *pipe.Pool, buf *particle.Buffer) (int, error) {
	if p.PPC < 1 {
		return 0, fmt.Errorf("loader: PPC %d must be ≥1", p.PPC)
	}
	if p.Nref <= 0 {
		return 0, fmt.Errorf("loader: Nref %g must be >0", p.Nref)
	}
	l := tileLoad{g: g, gl: gl, p: &p, buf: buf,
		gx0:  int(math.Round(g.X0 / g.DX)),
		gy0:  int(math.Round(g.Y0 / g.DY)),
		gz0:  int(math.Round(g.Z0 / g.DZ)),
		wRef: p.Nref * g.Volume() / float64(p.PPC),
	}
	const nb = pipe.NumBlocks
	cells := g.NCells()
	var off, got [nb]int
	base := buf.N()
	end := base
	for r := range off {
		off[r] = end
		lo, hi := pipe.BlockBounds(cells, nb, r)
		for c := lo; c < hi; c++ {
			if _, _, _, in := l.cell(c); in {
				end += p.PPC
			}
		}
	}
	buf.Resize(end)
	pool.Run(nb, func(r int) {
		lo, hi := pipe.BlockBounds(cells, nb, r)
		i := off[r]
		for c := lo; c < hi; c++ {
			i = l.loadCell(c, i)
		}
		got[r] = i - off[r]
	})
	n := base
	for r := range off {
		if n != off[r] {
			for i := 0; i < got[r]; i++ {
				buf.Set(n+i, buf.At(off[r]+i))
			}
		}
		n += got[r]
	}
	buf.Resize(n)
	return n - base, nil
}

// tileLoad is one Load call's tile and parameters, shared read-only by
// its range tasks.
type tileLoad struct {
	g             *grid.Grid
	gl            Global
	p             *Params
	buf           *particle.Buffer
	gx0, gy0, gz0 int
	wRef          float64
}

// cell returns interior cell c's indices (cells count in voxel order)
// and whether its center is inside the plasma.
func (l *tileLoad) cell(c int) (ix, iy, iz int, in bool) {
	g := l.g
	ix, iy, iz = c%g.NX+1, c/g.NX%g.NY+1, c/(g.NX*g.NY)+1
	cx, cy, cz := g.CellCenter(ix, iy, iz)
	return ix, iy, iz, l.p.Profile(cx, cy, cz) > 0
}

// loadCell writes interior cell c's particles from slot i on and
// returns the slot after the last. The cell's stream is keyed by its
// global cell id, so its particles do not depend on the tile or range.
func (l *tileLoad) loadCell(c, i int) int {
	g, p := l.g, l.p
	ix, iy, iz, in := l.cell(c)
	if !in {
		return i
	}
	gid := (l.gx0 + ix - 1) + l.gl.NX*((l.gy0+iy-1)+l.gl.NY*(l.gz0+iz-1))
	src := rng.Make(p.Seed, gid*64+p.StreamSalt)
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
		l.buf.Set(i, particle.Particle{
			Dx: dx, Dy: dy, Dz: dz, Voxel: v,
			Ux: float32(p.Drift[0] + src.Maxwellian(p.Uth[0])),
			Uy: float32(p.Drift[1] + src.Maxwellian(p.Uth[1])),
			Uz: float32(p.Drift[2] + src.Maxwellian(p.Uth[2])),
			W:  float32(l.wRef * dens / p.Nref),
		})
		i++
	}
	return i
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
	base, n := buf.N(), electrons.N()
	buf.Resize(base + n)
	for i := 0; i < n; i++ {
		e := electrons.At(i)
		buf.Set(base+i, particle.Particle{
			Dx: e.Dx, Dy: e.Dy, Dz: e.Dz, Voxel: e.Voxel,
			Ux: float32(src.Maxwellian(uth[0])),
			Uy: float32(src.Maxwellian(uth[1])),
			Uz: float32(src.Maxwellian(uth[2])),
			W:  e.W / float32(z),
		})
	}
	return nil
}
