package field_test

import (
	"math"
	"testing"

	"govpic/internal/field"
	"govpic/internal/grid"
	"govpic/internal/interp"
	"govpic/internal/rng"
)

// TestJGhostPlanesUnread: J's planes 0 and N+1 on every axis — the
// planes a fold leaves behind and no exchange mirrors back — hold NaN,
// and two steps of B half, E, B half advances (Mur faces included) and
// an interpolator load leave every E, B and interpolator value finite,
// on periodic, conductor and Mur faces. A sweep that reads one of those
// planes fails here.
func TestJGhostPlanesUnread(t *testing.T) {
	const (
		P = field.Periodic
		C = field.Conductor
		M = field.Absorbing
	)
	for _, tc := range []struct {
		name string
		bc   [field.NumFaces]field.BC
	}{
		{"periodic", [field.NumFaces]field.BC{P, P, P, P, P, P}},
		{"conductor", [field.NumFaces]field.BC{C, C, C, C, C, C}},
		{"mur", [field.NumFaces]field.BC{M, M, M, M, M, M}},
		{"mixed", [field.NumFaces]field.BC{M, C, P, P, C, M}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := grid.MustNew(5, 4, 3, 0.5, 0.5, 0.5)
			f := field.MustNew(g, tc.bc)
			r := rng.New(69, 0)
			for _, a := range [][]float32{f.Ex, f.Ey, f.Ez, f.Bx, f.By, f.Bz, f.Jx, f.Jy, f.Jz} {
				for v := range a {
					a[v] = float32(r.Uniform(-1, 1))
				}
			}
			nan := float32(math.NaN())
			sx, sy, sz := g.Strides()
			for v := 0; v < g.NV(); v++ {
				ix, iy, iz := g.Unvoxel(v)
				if ix == 0 || ix == sx-1 || iy == 0 || iy == sy-1 || iz == 0 || iz == sz-1 {
					f.Jx[v], f.Jy[v], f.Jz[v] = nan, nan, nan
				}
			}
			dt := 0.4 * 0.5 / math.Sqrt(3)
			ip := interp.NewTable(g)
			for step := 0; step < 2; step++ {
				f.AdvanceBPar(nil, dt, 0.5)
				f.AdvanceEPar(nil, dt)
				f.AdvanceBPar(nil, dt, 0.5)
			}
			ip.LoadPar(nil, f)
			for name, a := range map[string][]float32{"Ex": f.Ex, "Ey": f.Ey, "Ez": f.Ez, "Bx": f.Bx, "By": f.By, "Bz": f.Bz} {
				for v, x := range a {
					if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
						ix, iy, iz := g.Unvoxel(v)
						t.Fatalf("%s at (%d,%d,%d) = %g: a J ghost plane was read", name, ix, iy, iz, x)
					}
				}
			}
			for iz := 1; iz <= g.NZ; iz++ {
				for iy := 1; iy <= g.NY; iy++ {
					for ix := 1; ix <= g.NX; ix++ {
						v := g.Voxel(ix, iy, iz)
						ex, ey, ez := ip.E(v, 0.25, -0.5, 0.75)
						bx, by, bz := ip.B(v, 0.25, -0.5, 0.75)
						for _, x := range []float32{ex, ey, ez, bx, by, bz} {
							if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
								t.Fatalf("interpolated field in cell (%d,%d,%d) = %g: a J ghost plane was read", ix, iy, iz, x)
							}
						}
					}
				}
			}
		})
	}
}
