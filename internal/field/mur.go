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
// size along the face normal. Both passes walk the planes' grid.Plane
// rows, so a stored plane is in ascending voxel order.
type murState struct {
	// old[face][comp][plane] with plane 0 = boundary, plane 1 = neighbor.
	old [NumFaces][2][2][]float32
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
		if f.bc[face] != Absorbing {
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
		if f.bc[face] != Absorbing {
			continue
		}
		axis := face.Axis()
		d := axisD(f.G, axis)
		coef := float32((dt - d) / (dt + d))
		bIdx, nIdx := planeIndices(f.G, face)
		b, run, stride, n := f.G.Plane(axis, bIdx)
		nb, _, _, _ := f.G.Plane(axis, nIdx)
		t1, t2 := tangential(f, axis)
		for c, arr := range [2][]float32{t1, t2} {
			oldB, oldN := m.old[face][c][0], m.old[face][c][1]
			i := 0
			for k := 0; k < n*stride; k += stride {
				row, in := arr[b+k:b+k+run], arr[nb+k:nb+k+run]
				ob, on := oldB[i:i+run], oldN[i:i+run]
				for r := range row {
					row[r] = on[r] + coef*(in[r]-ob[r])
				}
				i += run
			}
		}
	}
}

// extractPlane copies the constant-index plane of arr normal to axis,
// row by row (grid.Plane), into dst (allocating it if needed) and
// returns it.
func extractPlane(g *grid.Grid, arr []float32, axis, idx int, dst []float32) []float32 {
	first, run, stride, n := g.Plane(axis, idx)
	if len(dst) != run*n {
		dst = make([]float32, run*n)
	}
	i := 0
	for k := first; k < first+n*stride; k += stride {
		i += copy(dst[i:], arr[k:k+run])
	}
	return dst
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
