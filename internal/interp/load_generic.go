//go:build !amd64 || purego

package interp

func (t *Table) loadPlanes(izLo, izHi, sx, sxy int, ex, ey, ez, bx, by, bz []float32) {
	t.loadPlanesGo(izLo, izHi, sx, sxy, ex, ey, ez, bx, by, bz)
}
