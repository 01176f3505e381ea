//go:build !purego

package interp

import "unsafe"

// loadRow is one x-row of loadPlanesGo: the n records from c, read from
// index v of every field array, each passed as &a[v], with strides sx
// and sxy. Four voxels' coefficient groups are computed as SSE2 vectors
// in the compiled loop's operand order and a 4×4 transpose turns them
// into four records (four quads and one pair each); the 0–3 voxels left
// over run the same code one lane wide. Every bit — NaN payloads
// included — equals the loop's. SSE2 is the amd64 baseline: nothing is
// probed.
//
//go:noescape
func loadRow(c *Coeffs, ex, ey, ez, bx, by, bz *float32, n, sx, sxy int)

// The record offsets loadRow stores at.
var _ = [1]struct{}{}[unsafe.Offsetof(Coeffs{}.Ey0)-16]
var _ = [1]struct{}{}[unsafe.Offsetof(Coeffs{}.Ez0)-32]
var _ = [1]struct{}{}[unsafe.Offsetof(Coeffs{}.CBx0)-48]
var _ = [1]struct{}{}[unsafe.Offsetof(Coeffs{}.CBz0)-64]
var _ = [1]struct{}{}[unsafe.Sizeof(Coeffs{})-72]

// loadPlanes is loadPlanesGo as one loadRow call per x-row.
func (t *Table) loadPlanes(izLo, izHi, sx, sxy int, ex, ey, ez, bx, by, bz []float32) {
	g := t.G
	// A row reads the fields up to sx+sxy past its last voxel; the
	// reslices keep every access of the range inside the arrays.
	end := g.Voxel(g.NX, g.NY, izHi) + 1
	rd := end + sx + sxy
	ex, ey, ez, bx, by, bz = ex[:rd], ey[:rd], ez[:rd], bx[:rd], by[:rd], bz[:rd]
	c := t.C[:end]
	for iz := izLo; iz <= izHi; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			v := g.Voxel(1, iy, iz)
			loadRow(&c[v], &ex[v], &ey[v], &ez[v], &bx[v], &by[v], &bz[v], g.NX, sx, sxy)
		}
	}
}
