// Package interp builds the per-voxel field interpolator table the
// particle pusher consumes — VPIC's 18-coefficient "interpolator"
// structure, precomputed once per step from the Yee fields.
//
// Within cell (i,j,k), with offsets (dx,dy,dz) ∈ [-1,1]:
//
//	Ex = Ex0 + dy·DExDy + dz·DExDz + dy·dz·D2ExDyDz   (from the 4 x-edges)
//	Ey = Ey0 + dz·DEyDz + dx·DEyDx + dz·dx·D2EyDzDx   (from the 4 y-edges)
//	Ez = Ez0 + dx·DEzDx + dy·DEzDy + dx·dy·D2EzDxDy   (from the 4 z-edges)
//	cBx = CBx0 + dx·DCBxDx                            (from the 2 x-faces)
//	cBy = CBy0 + dy·DCByDy
//	cBz = CBz0 + dz·DCBzDz
//
// This is exactly the trilinear interpolation implied by the Yee
// staggering: each E component is linear in the two axes transverse to
// it (and constant along its own axis within the cell), and each B
// component is linear along its own axis. Precomputing the combination
// coefficients turns the per-particle gather into a dense, branch-free
// read of one 72-byte record — the data layout the Cell SPE inner loop
// was built around.
package interp

import (
	"govpic/internal/field"
	"govpic/internal/grid"
	"govpic/internal/pipe"
)

// Coeffs is the 18-coefficient interpolator of one voxel.
type Coeffs struct {
	Ex0, DExDy, DExDz, D2ExDyDz float32
	Ey0, DEyDz, DEyDx, D2EyDzDx float32
	Ez0, DEzDx, DEzDy, D2EzDxDy float32
	CBx0, DCBxDx                float32
	CBy0, DCByDy                float32
	CBz0, DCBzDz                float32
}

// Table holds the interpolators for every voxel of a grid.
type Table struct {
	G *grid.Grid
	C []Coeffs

	// LoadPar's source fields and its z-range task, bound once so a
	// pooled load allocates nothing.
	src  *field.Fields
	load func(lo, hi int)
}

// NewTable allocates an interpolator table for g.
func NewTable(g *grid.Grid) *Table {
	return &Table{G: g, C: make([]Coeffs, g.NV())}
}

// LoadPar fills the table from the fields, which must have current
// boundary/ghost planes (field.UpdateGhostE / UpdateGhostB). Only
// interior cells are loaded; ghost-cell interpolators stay zero and must
// never be consumed (particles live in interior cells). The z-plane
// sweep is split over the worker pool p (nil runs it inline); each
// voxel's coefficients are computed independently from the (read-only)
// fields, so the partition is exact for any worker count.
func (t *Table) LoadPar(p *pipe.Pool, f *field.Fields) {
	if t.load == nil {
		t.load = t.loadRange
	}
	t.src = f
	p.Range(t.G.NZ, t.load)
	t.src = nil
}

// loadRange fills the interpolators of z planes (lo, hi] from t.src.
func (t *Table) loadRange(lo, hi int) {
	f := t.src
	sx, sy, _ := t.G.Strides()
	t.loadPlanes(lo+1, hi, sx, sx*sy, f.Ex, f.Ey, f.Ez, f.Bx, f.By, f.Bz)
}

// loadPlanesGo fills the interpolators of z planes [izLo, izHi]. It is
// the spec of loadPlanes' row routine, the purego / non-amd64 load and
// the parity tests' oracle.
func (t *Table) loadPlanesGo(izLo, izHi, sx, sxy int, ex, ey, ez, bx, by, bz []float32) {
	g := t.G
	for iz := izLo; iz <= izHi; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			v := g.Voxel(1, iy, iz)
			for ix := 1; ix <= g.NX; ix++ {
				c := &t.C[v]

				// Ex on the four x-edges bounding the cell: (j,k), (j+1,k),
				// (j,k+1), (j+1,k+1).
				w0, w1, w2, w3 := ex[v], ex[v+sx], ex[v+sxy], ex[v+sx+sxy]
				c.Ex0 = 0.25 * (w0 + w1 + w2 + w3)
				c.DExDy = 0.25 * ((w1 + w3) - (w0 + w2))
				c.DExDz = 0.25 * ((w2 + w3) - (w0 + w1))
				c.D2ExDyDz = 0.25 * ((w0 + w3) - (w1 + w2))

				// Ey on the four y-edges: (k,i), (k+1,i), (k,i+1), (k+1,i+1).
				w0, w1, w2, w3 = ey[v], ey[v+sxy], ey[v+1], ey[v+sxy+1]
				c.Ey0 = 0.25 * (w0 + w1 + w2 + w3)
				c.DEyDz = 0.25 * ((w1 + w3) - (w0 + w2))
				c.DEyDx = 0.25 * ((w2 + w3) - (w0 + w1))
				c.D2EyDzDx = 0.25 * ((w0 + w3) - (w1 + w2))

				// Ez on the four z-edges: (i,j), (i+1,j), (i,j+1), (i+1,j+1).
				w0, w1, w2, w3 = ez[v], ez[v+1], ez[v+sx], ez[v+sx+1]
				c.Ez0 = 0.25 * (w0 + w1 + w2 + w3)
				c.DEzDx = 0.25 * ((w1 + w3) - (w0 + w2))
				c.DEzDy = 0.25 * ((w2 + w3) - (w0 + w1))
				c.D2EzDxDy = 0.25 * ((w0 + w3) - (w1 + w2))

				// cB on the face pairs.
				c.CBx0 = 0.5 * (bx[v] + bx[v+1])
				c.DCBxDx = 0.5 * (bx[v+1] - bx[v])
				c.CBy0 = 0.5 * (by[v] + by[v+sx])
				c.DCByDy = 0.5 * (by[v+sx] - by[v])
				c.CBz0 = 0.5 * (bz[v] + bz[v+sxy])
				c.DCBzDz = 0.5 * (bz[v+sxy] - bz[v])

				v++
			}
		}
	}
}

// E evaluates the interpolated electric field at offsets (dx,dy,dz) of
// voxel v. The hot pusher inlines this arithmetic; this method exists
// for diagnostics and tests.
func (t *Table) E(v int, dx, dy, dz float32) (exv, eyv, ezv float32) {
	c := &t.C[v]
	exv = c.Ex0 + dy*c.DExDy + dz*(c.DExDz+dy*c.D2ExDyDz)
	eyv = c.Ey0 + dz*c.DEyDz + dx*(c.DEyDx+dz*c.D2EyDzDx)
	ezv = c.Ez0 + dx*c.DEzDx + dy*(c.DEzDy+dx*c.D2EzDxDy)
	return
}

// B evaluates the interpolated cB at offsets (dx,dy,dz) of voxel v.
func (t *Table) B(v int, dx, dy, dz float32) (bxv, byv, bzv float32) {
	c := &t.C[v]
	return c.CBx0 + dx*c.DCBxDx, c.CBy0 + dy*c.DCByDy, c.CBz0 + dz*c.DCBzDz
}
