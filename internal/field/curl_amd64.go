//go:build !purego

package field

// curlBRow and curlERow are one x-row of sweepBGo and sweepEGo: n
// voxels from index v of every array, each passed as &a[v], with
// strides sx and sxy. Every element takes the loop's operations in the
// compiled loop's operand order, four voxels per SSE2 vector and the
// 0–3 left over one at a time, so every bit — NaN payloads included —
// equals the loop's. SSE2 is the amd64 baseline: nothing is probed.
//
//go:noescape
func curlBRow(ex, ey, ez, bx, by, bz *float32, n, sx, sxy int, px, py, pz float32)

//go:noescape
func curlERow(ex, ey, ez, bx, by, bz, jx, jy, jz *float32, n, sx, sxy int, px, py, pz, cj float32)

// sweepB is sweepBGo as one curlBRow call per x-row.
func (t *curl) sweepB(lo, hi int) {
	f, g := t.f, t.f.G
	sx, sy, _ := g.Strides()
	sxy := sx * sy
	// A row reads E up to sxy past its last voxel; the reslices keep
	// every access of the range inside the arrays.
	end := g.Voxel(g.NX, g.NY, hi) + 1
	ex, ey, ez := f.Ex[:end+sxy], f.Ey[:end+sxy], f.Ez[:end+sxy]
	bx, by, bz := f.Bx[:end], f.By[:end], f.Bz[:end]
	for iz := lo + 1; iz <= hi; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			v := g.Voxel(1, iy, iz)
			curlBRow(&ex[v], &ey[v], &ez[v], &bx[v], &by[v], &bz[v], g.NX, sx, sxy, t.px, t.py, t.pz)
		}
	}
}

// sweepE is sweepEGo as one curlERow call per x-row. Its rows read B
// down to sxy below their first voxel, which plane lo ≥ 0 holds.
func (t *curl) sweepE(lo, hi int) {
	f, g := t.f, t.f.G
	sx, sy, _ := g.Strides()
	sxy := sx * sy
	end := g.Voxel(g.NX, g.NY, hi) + 1
	ex, ey, ez := f.Ex[:end], f.Ey[:end], f.Ez[:end]
	bx, by, bz := f.Bx[:end], f.By[:end], f.Bz[:end]
	jx, jy, jz := f.Jx[:end], f.Jy[:end], f.Jz[:end]
	for iz := lo + 1; iz <= hi; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			v := g.Voxel(1, iy, iz)
			curlERow(&ex[v], &ey[v], &ez[v], &bx[v], &by[v], &bz[v], &jx[v], &jy[v], &jz[v],
				g.NX, sx, sxy, t.px, t.py, t.pz, t.cj)
		}
	}
}
