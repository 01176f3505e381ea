package interp

import (
	"math"
	"testing"
	"testing/quick"

	"govpic/internal/field"
	"govpic/internal/grid"
)

func linearFields(g *grid.Grid) *field.Fields {
	// Fields linear in their transverse node indices, exactly
	// representable by the interpolator.
	f := field.NewPeriodic(g)
	sx, sy, sz := g.Strides()
	for iz := 0; iz < sz; iz++ {
		for iy := 0; iy < sy; iy++ {
			for ix := 0; ix < sx; ix++ {
				v := g.Voxel(ix, iy, iz)
				f.Ex[v] = float32(2*iy + 3*iz)
				f.Ey[v] = float32(1*iz - 2*ix)
				f.Ez[v] = float32(4*ix + 1*iy)
				f.Bx[v] = float32(5 * ix)
				f.By[v] = float32(-2 * iy)
				f.Bz[v] = float32(7 * iz)
			}
		}
	}
	return f
}

func TestLoadReproducesLinearFields(t *testing.T) {
	g := grid.MustNew(6, 5, 4, 1, 1, 1)
	f := linearFields(g)
	tab := NewTable(g)
	tab.LoadPar(nil, f)

	// Check E at cell corners against the defining edge values: for cell
	// (i,j,k), Ex at (dy,dz)=(-1,-1) must equal ex(i,j,k).
	for _, c := range [][3]int{{2, 2, 2}, {1, 4, 3}, {5, 1, 1}} {
		v := g.Voxel(c[0], c[1], c[2])
		ex, ey, ez := tab.E(v, -1, -1, -1)
		if math.Abs(float64(ex)-float64(f.Ex[v])) > 1e-5 {
			t.Fatalf("Ex corner: %g vs %g", ex, f.Ex[v])
		}
		if math.Abs(float64(ey)-float64(f.Ey[v])) > 1e-5 {
			t.Fatalf("Ey corner: %g vs %g", ey, f.Ey[v])
		}
		if math.Abs(float64(ez)-float64(f.Ez[v])) > 1e-5 {
			t.Fatalf("Ez corner: %g vs %g", ez, f.Ez[v])
		}
		// B at low face (-1 along own axis).
		bx, by, bz := tab.B(v, -1, -1, -1)
		if math.Abs(float64(bx)-float64(f.Bx[v])) > 1e-5 ||
			math.Abs(float64(by)-float64(f.By[v])) > 1e-5 ||
			math.Abs(float64(bz)-float64(f.Bz[v])) > 1e-5 {
			t.Fatalf("B corner mismatch at %v", c)
		}
	}
}

func TestInterpolationIsBilinearExact(t *testing.T) {
	// For fields linear in the node indices, the interpolated value at
	// any offset must be the exact linear interpolant.
	g := grid.MustNew(6, 5, 4, 1, 1, 1)
	f := linearFields(g)
	tab := NewTable(g)
	tab.LoadPar(nil, f)
	v := g.Voxel(3, 2, 2)
	fcheck := func(dy, dz float64) bool {
		dy = math.Mod(dy, 1)
		dz = math.Mod(dz, 1)
		ex, _, _ := tab.E(v, 0, float32(dy), float32(dz))
		// Ex = 2·jy + 3·jz at edge nodes; cell (·,2,2) spans j∈[2,3],
		// k∈[2,3]: value = 2·(2+(1+dy)/2) + 3·(2+(1+dz)/2).
		want := 2*(2+(1+dy)/2) + 3*(2+(1+dz)/2)
		return math.Abs(float64(ex)-want) < 1e-5
	}
	if err := quick.Check(fcheck, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBLinearAlongOwnAxis(t *testing.T) {
	g := grid.MustNew(6, 5, 4, 1, 1, 1)
	f := linearFields(g)
	tab := NewTable(g)
	tab.LoadPar(nil, f)
	v := g.Voxel(3, 2, 2)
	// Bx = 5·ix at faces ix=3 and ix=4: at dx=0 must be 17.5.
	bx, _, _ := tab.B(v, 0, 0.5, -0.5)
	if math.Abs(float64(bx)-17.5) > 1e-5 {
		t.Fatalf("Bx midpoint = %g, want 17.5", bx)
	}
	// And constant in the transverse offsets.
	bx2, _, _ := tab.B(v, 0, -0.9, 0.9)
	if bx != bx2 {
		t.Fatal("Bx depends on transverse offsets")
	}
}

func TestGhostCellsStayZero(t *testing.T) {
	g := grid.MustNew(4, 4, 4, 1, 1, 1)
	f := linearFields(g)
	tab := NewTable(g)
	tab.LoadPar(nil, f)
	// Ghost voxel interpolators must remain zero (never consumed).
	z := Coeffs{}
	if tab.C[g.Voxel(0, 2, 2)] != z || tab.C[g.Voxel(2, 0, 2)] != z {
		t.Fatal("ghost interpolator written")
	}
}

func BenchmarkLoad32Cubed(b *testing.B) {
	g := grid.MustNew(32, 32, 32, 1, 1, 1)
	f := linearFields(g)
	tab := NewTable(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.LoadPar(nil, f)
	}
}
