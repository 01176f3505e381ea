//go:build !purego

package accum

// unloadRows is an unload family loop over nz planes of ny rows of n
// edges: for every edge e it adds c·(s[e].0 + s[e−a].1 + s[e−b].2 +
// s[e−a−b].3) into j[e], where s[k].m is slot m of the family's quad in
// the k-th cell from s (a Cell is 48 bytes), rows sx and planes sxy
// edges apart. Each edge keeps the loop's operations and gc's operand
// order — the sum left-associated, the product's destination the sum,
// the add's the product — so every bit, NaN payloads included, equals
// the loop's. The edges are scalar SSE: gathering a term's slot from
// four cells into one vector costs three shuffles, more than the vector
// saves. One call covers a family's whole z range, as the calls per row
// cost as much as a short row's edges.
//
//go:noescape
func unloadRows(j, s *float32, nz, ny, n, sx, sxy, a, b int, c float32)

// unloadRange is unloadRangeGo as one unloadRows call per family: Jx
// with (a, b) = (sx, sxy), Jy with (sxy, 1), Jz with (1, sx).
func (t *tasks) unloadRange(lo, hi int) {
	g, f := t.a.G, t.f
	sx, sy, _ := g.Strides()
	sxy := sx * sy
	// Every edge reads cells no lower than a+b below it, which the
	// ghost planes hold, and no family reads or writes past the range's
	// last Jz edge; the reslices keep every access inside the arrays.
	end := g.Voxel(g.NX+1, g.NY+1, hi) + 1
	A, jx, jy, jz := t.a.A[:end], f.Jx[:end], f.Jy[:end], f.Jz[:end]
	v, nz := g.Voxel(1, 1, lo+1), hi-lo
	unloadRows(&jx[v], &A[v].JX[0], nz, g.NY+1, g.NX, sx, sxy, sx, sxy, t.cx)
	unloadRows(&jy[v], &A[v].JY[0], nz, g.NY, g.NX+1, sx, sxy, sxy, 1, t.cy)
	unloadRows(&jz[v], &A[v].JZ[0], min(hi, g.NZ)-lo, g.NY+1, g.NX+1, sx, sxy, 1, sx, t.cz)
}
