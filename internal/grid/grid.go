// Package grid defines the Yee-mesh geometry used by the field solver
// and the particle kernels, plus the 3-D domain partitioner used for
// parallel decomposition.
//
// Layout conventions (identical to VPIC's):
//
//   - The local mesh has NX×NY×NZ interior cells plus one ghost layer on
//     every side, so arrays are (NX+2)·(NY+2)·(NZ+2) long.
//   - Nodes sit at integer coordinates; cell (ix,iy,iz), ix ∈ [1,NX],
//     spans nodes (ix-1..ix) scaled by the cell size — i.e. cell ix
//     covers x ∈ [X0+(ix-1)·DX, X0+ix·DX).
//   - A particle stores the index of the cell containing it and offsets
//     (dx,dy,dz) ∈ [-1,1] within the cell (−1 at the low face, +1 at the
//     high face).
//   - Yee staggering relative to cell (ix,iy,iz)'s low corner node:
//     Ex on the x-edge (low corner +½dx), Ey on the y-edge, Ez on the
//     z-edge; Bx on the x-face (+½dy+½dz), By on the y-face, Bz on the
//     z-face.
package grid

import (
	"fmt"
	"math"
)

// Grid describes a (sub)mesh: interior cell counts, physical cell sizes
// and the coordinates of its low corner.
type Grid struct {
	NX, NY, NZ int     // interior cell counts
	DX, DY, DZ float64 // cell sizes (code length units)
	X0, Y0, Z0 float64 // low-corner node coordinate of interior cell (1,1,1)

	sx, sy, sz int // strides including ghosts: N+2
}

// New validates the geometry and returns a Grid. All cell counts must be
// ≥ 1 and all spacings > 0.
func New(nx, ny, nz int, dx, dy, dz, x0, y0, z0 float64) (*Grid, error) {
	if nx < 1 || ny < 1 || nz < 1 {
		return nil, fmt.Errorf("grid: cell counts must be ≥1, got %d×%d×%d", nx, ny, nz)
	}
	if dx <= 0 || dy <= 0 || dz <= 0 {
		return nil, fmt.Errorf("grid: cell sizes must be >0, got %g×%g×%g", dx, dy, dz)
	}
	return &Grid{
		NX: nx, NY: ny, NZ: nz,
		DX: dx, DY: dy, DZ: dz,
		X0: x0, Y0: y0, Z0: z0,
		sx: nx + 2, sy: ny + 2, sz: nz + 2,
	}, nil
}

// MustNew is New but panics on error; for tests and literals.
func MustNew(nx, ny, nz int, dx, dy, dz float64) *Grid {
	g, err := New(nx, ny, nz, dx, dy, dz, 0, 0, 0)
	if err != nil {
		panic(err)
	}
	return g
}

// NV returns the number of voxels including ghosts; all per-voxel arrays
// (fields, interpolators, accumulators) have this length.
func (g *Grid) NV() int { return g.sx * g.sy * g.sz }

// NCells returns the number of interior cells.
func (g *Grid) NCells() int { return g.NX * g.NY * g.NZ }

// Strides returns the array strides (ghost-inclusive sizes) along each
// axis: moving one cell in x changes the voxel index by 1, in y by SX,
// in z by SX·SY.
func (g *Grid) Strides() (sx, sy, sz int) { return g.sx, g.sy, g.sz }

// Plane returns the constant-index plane idx normal to axis, over the
// full ghost-inclusive extent of the other two axes, as n rows of run
// contiguous voxels, row k starting at voxel first+k·stride. Rows and
// the voxels within them come in ascending voxel order. A z-normal
// plane is one row and a y-normal plane one row per z layer; an
// x-normal plane is n rows of one voxel each, stride SX apart.
func (g *Grid) Plane(axis, idx int) (first, run, stride, n int) {
	switch axis {
	case 0:
		return idx, 1, g.sx, g.sy * g.sz
	case 1:
		return g.sx * idx, g.sx, g.sx * g.sy, g.sz
	case 2:
		return g.sx * g.sy * idx, g.sx * g.sy, g.sx * g.sy, 1
	}
	panic("grid: bad axis")
}

// PlaneSize returns the voxel count of a plane normal to axis, run × n
// of its Plane rows.
func (g *Grid) PlaneSize(axis int) int {
	_, run, _, n := g.Plane(axis, 0)
	return run * n
}

// Voxel returns the flat index of cell (ix,iy,iz); ghost layers are
// ix=0 and ix=NX+1 (and likewise for y, z).
func (g *Grid) Voxel(ix, iy, iz int) int {
	return ix + g.sx*(iy+g.sy*iz)
}

// Unvoxel inverts Voxel.
func (g *Grid) Unvoxel(v int) (ix, iy, iz int) {
	ix = v % g.sx
	v /= g.sx
	iy = v % g.sy
	iz = v / g.sy
	return
}

// Interior reports whether the flat voxel index v is an interior cell.
func (g *Grid) Interior(v int) bool {
	ix, iy, iz := g.Unvoxel(v)
	return ix >= 1 && ix <= g.NX && iy >= 1 && iy <= g.NY && iz >= 1 && iz <= g.NZ
}

// CellLowCorner returns the physical coordinate of cell (ix,iy,iz)'s low
// corner node.
func (g *Grid) CellLowCorner(ix, iy, iz int) (x, y, z float64) {
	return g.X0 + float64(ix-1)*g.DX, g.Y0 + float64(iy-1)*g.DY, g.Z0 + float64(iz-1)*g.DZ
}

// CellCenter returns the physical coordinate of the center of cell
// (ix,iy,iz) — the location of a particle with offsets (0,0,0).
func (g *Grid) CellCenter(ix, iy, iz int) (x, y, z float64) {
	x, y, z = g.CellLowCorner(ix, iy, iz)
	return x + 0.5*g.DX, y + 0.5*g.DY, z + 0.5*g.DZ
}

// Position returns the physical position of a particle given its voxel
// and offsets.
func (g *Grid) Position(v int, dx, dy, dz float32) (x, y, z float64) {
	ix, iy, iz := g.Unvoxel(v)
	cx, cy, cz := g.CellCenter(ix, iy, iz)
	return cx + 0.5*g.DX*float64(dx), cy + 0.5*g.DY*float64(dy), cz + 0.5*g.DZ*float64(dz)
}

// Extent returns the physical lengths of the interior domain.
func (g *Grid) Extent() (lx, ly, lz float64) {
	return float64(g.NX) * g.DX, float64(g.NY) * g.DY, float64(g.NZ) * g.DZ
}

// CourantLimit returns the 3-D vacuum FDTD stability limit
// 1/sqrt(1/dx²+1/dy²+1/dz²) (in code units where c=1); time steps must
// be strictly below it.
func (g *Grid) CourantLimit() float64 {
	s := 1/(g.DX*g.DX) + 1/(g.DY*g.DY) + 1/(g.DZ*g.DZ)
	return 1 / math.Sqrt(s)
}

// Volume returns the cell volume.
func (g *Grid) Volume() float64 { return g.DX * g.DY * g.DZ }
