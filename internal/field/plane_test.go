package field

import (
	"math"
	"testing"

	"govpic/internal/grid"
	"govpic/internal/rng"
)

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
