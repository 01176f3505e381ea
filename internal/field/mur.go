package field

import "govpic/internal/grid"

// murState holds the previous-step tangential E planes that the
// first-order Mur absorbing boundary needs. For each absorbing face we
// keep, per tangential component, the boundary plane and its interior
// neighbor from before the E update:
//
//	E_b^{n+1} = E_i^n + (dt−d)/(dt+d) · (E_i^{n+1} − E_b^n)
//
// where b is the boundary node, i its interior neighbor, and d the cell
// size along the face normal.
type murState struct {
	// old[face][comp][plane] with plane 0 = boundary, plane 1 = neighbor.
	old [NumFaces][2][2][]float32
}

func newMurState(g *grid.Grid) *murState {
	return &murState{}
}

// planeIndices returns the boundary node index and its interior neighbor
// for the face.
func planeIndices(g *grid.Grid, face Face) (boundary, neighbor int) {
	if face.High() {
		n := axisN(g, face.Axis())
		return n + 1, n
	}
	return 1, 2
}

// snapshot stores the pre-update tangential E on every absorbing face.
func (m *murState) snapshot(f *Fields) {
	for face := Face(0); face < NumFaces; face++ {
		if f.bc[face] != Absorbing || f.remote[face] {
			continue
		}
		axis := face.Axis()
		bIdx, nIdx := planeIndices(f.G, face)
		t1, t2 := tangential(f, axis)
		for c, arr := range [2][]float32{t1, t2} {
			m.old[face][c][0] = extractPlane(f.G, arr, axis, bIdx, m.old[face][c][0])
			m.old[face][c][1] = extractPlane(f.G, arr, axis, nIdx, m.old[face][c][1])
		}
	}
}

// apply performs the Mur update on every absorbing face; it must run
// after the interior E update and ghost refresh.
func (m *murState) apply(f *Fields, dt float64) {
	for face := Face(0); face < NumFaces; face++ {
		if f.bc[face] != Absorbing || f.remote[face] {
			continue
		}
		axis := face.Axis()
		d := axisD(f.G, axis)
		coef := float32((dt - d) / (dt + d))
		bIdx, nIdx := planeIndices(f.G, face)
		t1, t2 := tangential(f, axis)
		for c, arr := range [2][]float32{t1, t2} {
			oldB := m.old[face][c][0]
			oldN := m.old[face][c][1]
			i := 0
			forEachInPlane(f.G, axis, bIdx, nIdx, func(bi, ni int) {
				arr[bi] = oldN[i] + coef*(arr[ni]-oldB[i])
				i++
			})
		}
	}
}

// extractPlane copies the constant-index plane of arr normal to axis
// into dst (allocating it if needed) and returns it.
func extractPlane(g *grid.Grid, arr []float32, axis, idx int, dst []float32) []float32 {
	n := planeSize(g, axis)
	if len(dst) != n {
		dst = make([]float32, n)
	}
	i := 0
	forEachInPlane(g, axis, idx, idx, func(di, _ int) {
		dst[i] = arr[di]
		i++
	})
	return dst
}

func planeSize(g *grid.Grid, axis int) int {
	_, run, _, n := g.Plane(axis, 0)
	return run * n
}

func axisD(g *grid.Grid, axis int) float64 {
	switch axis {
	case 0:
		return g.DX
	case 1:
		return g.DY
	default:
		return g.DZ
	}
}
