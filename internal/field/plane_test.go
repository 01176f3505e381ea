package field

import (
	"math"
	"testing"

	"govpic/internal/grid"
	"govpic/internal/rng"
)

// forEachInPlane visits every (dst,src) voxel index pair of two
// constant-index planes normal to axis, spanning the full ghost-inclusive
// extent of the other two axes: the per-element oracle of every
// row-wise plane pass.
func forEachInPlane(g *grid.Grid, axis, dst, src int, fn func(di, si int)) {
	sx, sy, sz := g.Strides()
	switch axis {
	case 0:
		for iz := 0; iz < sz; iz++ {
			for iy := 0; iy < sy; iy++ {
				base := sx * (iy + sy*iz)
				fn(base+dst, base+src)
			}
		}
	case 1:
		for iz := 0; iz < sz; iz++ {
			for ix := 0; ix < sx; ix++ {
				base := ix + sx*sy*iz
				fn(base+sx*dst, base+sx*src)
			}
		}
	case 2:
		for iy := 0; iy < sy; iy++ {
			for ix := 0; ix < sx; ix++ {
				base := ix + sx*iy
				fn(base+sx*sy*dst, base+sx*sy*src)
			}
		}
	default:
		panic("field: bad axis")
	}
}

// TestPlanesMatchPerElementOracle holds the row-wise copyPlane,
// addPlane and zeroPlane to their per-element forms over
// forEachInPlane, bit for bit: every axis, every (dst, src) plane pair
// including dst == src, on random arrays with NaN payloads mixed in.
func TestPlanesMatchPerElementOracle(t *testing.T) {
	g := grid.MustNew(5, 3, 4, 1, 1, 1)
	f := NewPeriodic(g)
	r := rng.New(48, 0)
	random := func() [][]float32 {
		arrs := [][]float32{make([]float32, g.NV()), make([]float32, g.NV())}
		for _, a := range arrs {
			for v := range a {
				if r.Intn(8) == 0 {
					a[v] = math.Float32frombits(uint32(r.Uint64())&0x807fffff | 0x7f800001)
				} else {
					a[v] = float32(r.Uniform(-1, 1))
				}
			}
		}
		return arrs
	}
	clone := func(arrs [][]float32) [][]float32 {
		out := make([][]float32, len(arrs))
		for i, a := range arrs {
			out[i] = append([]float32(nil), a...)
		}
		return out
	}
	ops := []struct {
		name   string
		rows   func(arrs [][]float32, axis, dst, src int)
		oracle func(a []float32, di, si int)
	}{
		{"copyPlane", f.copyPlane, func(a []float32, di, si int) { a[di] = a[si] }},
		{"addPlane", f.addPlane, func(a []float32, di, si int) { a[di] += a[si]; a[si] = 0 }},
		{"zeroPlane", func(arrs [][]float32, axis, dst, _ int) { f.zeroPlane(arrs, axis, dst) },
			func(a []float32, di, _ int) { a[di] = 0 }},
	}
	for axis := 0; axis < 3; axis++ {
		n := axisN(g, axis)
		for dst := 0; dst <= n+1; dst++ {
			for src := 0; src <= n+1; src++ {
				for _, op := range ops {
					if op.name == "zeroPlane" && src != dst {
						continue // one plane only
					}
					got := random()
					want := clone(got)
					op.rows(got, axis, dst, src)
					forEachInPlane(g, axis, dst, src, func(di, si int) {
						for _, a := range want {
							op.oracle(a, di, si)
						}
					})
					for i := range got {
						for v := range got[i] {
							if math.Float32bits(got[i][v]) != math.Float32bits(want[i][v]) {
								t.Fatalf("%s axis %d dst %d src %d: array %d voxel %d = %x, oracle %x",
									op.name, axis, dst, src, i, v, math.Float32bits(got[i][v]), math.Float32bits(want[i][v]))
							}
						}
					}
				}
			}
		}
	}
}

// TestMurMatchesPerElementOracle holds the Mur absorber's row-wise
// snapshot and apply to their per-voxel form over forEachInPlane, bit
// for bit: on random arrays, with every face of one axis absorbing and
// with all six at once (faces share edge voxels, so their order counts),
// for a Courant number below and near 1 on unequal cell sizes.
func TestMurMatchesPerElementOracle(t *testing.T) {
	g := grid.MustNew(5, 3, 4, 0.5, 0.7, 0.9)
	r := rng.New(65, 1)
	randomize := func(f *Fields) {
		for _, a := range allArrays(f) {
			for v := range a {
				a[v] = float32(r.Uniform(-1, 1))
			}
		}
	}
	absorbing := [][]Face{{XLo, XHi}, {YLo, YHi}, {ZLo, ZHi}, {XLo, XHi, YLo, YHi, ZLo, ZHi}}
	for _, faces := range absorbing {
		for _, dt := range []float64{0.2, 0.95 * g.CourantLimit()} {
			var bc [NumFaces]BC
			for _, face := range faces {
				bc[face] = Absorbing
			}
			for axis := 0; axis < 3; axis++ {
				if bc[2*axis] != Absorbing {
					bc[2*axis], bc[2*axis+1] = Conductor, Conductor
				}
			}
			got := MustNew(g, bc)
			randomize(got)
			want := MustNew(g, bc)
			for i, a := range allArrays(got) {
				copy(allArrays(want)[i], a)
			}
			// The oracle's snapshot: per face and tangential component,
			// the boundary and neighbour planes in forEachInPlane order.
			var old [NumFaces][2][2][]float32
			for _, face := range faces {
				b, nb := planeIndices(g, face)
				t1, t2 := tangential(want, face.Axis())
				for c, arr := range [2][]float32{t1, t2} {
					forEachInPlane(g, face.Axis(), b, nb, func(bi, ni int) {
						old[face][c][0] = append(old[face][c][0], arr[bi])
						old[face][c][1] = append(old[face][c][1], arr[ni])
					})
				}
			}
			got.mur.snapshot(got)
			// The interior update, the same on both.
			for i, a := range allArrays(got) {
				for v := range a {
					a[v] += float32(r.Uniform(-0.5, 0.5))
				}
				copy(allArrays(want)[i], a)
			}
			got.mur.apply(got, dt)
			for _, face := range faces {
				b, nb := planeIndices(g, face)
				d := axisD(g, face.Axis())
				coef := float32((dt - d) / (dt + d))
				t1, t2 := tangential(want, face.Axis())
				for c, arr := range [2][]float32{t1, t2} {
					i := 0
					forEachInPlane(g, face.Axis(), b, nb, func(bi, ni int) {
						arr[bi] = old[face][c][1][i] + coef*(arr[ni]-old[face][c][0][i])
						i++
					})
				}
			}
			for i, a := range allArrays(got) {
				for v := range a {
					if math.Float32bits(a[v]) != math.Float32bits(allArrays(want)[i][v]) {
						t.Fatalf("faces %v dt %g: array %d voxel %d = %g, oracle %g",
							faces, dt, i, v, a[v], allArrays(want)[i][v])
					}
				}
			}
		}
	}
}
