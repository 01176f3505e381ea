package grid

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidates(t *testing.T) {
	if _, err := New(0, 4, 4, 1, 1, 1, 0, 0, 0); err == nil {
		t.Error("accepted nx=0")
	}
	if _, err := New(4, 4, 4, 0, 1, 1, 0, 0, 0); err == nil {
		t.Error("accepted dx=0")
	}
	if _, err := New(4, 4, 4, 1, 1, -1, 0, 0, 0); err == nil {
		t.Error("accepted dz<0")
	}
}

func TestVoxelRoundTrip(t *testing.T) {
	g := MustNew(5, 3, 7, 1, 1, 1)
	seen := map[int]bool{}
	for iz := 0; iz <= g.NZ+1; iz++ {
		for iy := 0; iy <= g.NY+1; iy++ {
			for ix := 0; ix <= g.NX+1; ix++ {
				v := g.Voxel(ix, iy, iz)
				if v < 0 || v >= g.NV() {
					t.Fatalf("voxel(%d,%d,%d) = %d out of [0,%d)", ix, iy, iz, v, g.NV())
				}
				if seen[v] {
					t.Fatalf("voxel %d duplicated", v)
				}
				seen[v] = true
				jx, jy, jz := g.Unvoxel(v)
				if jx != ix || jy != iy || jz != iz {
					t.Fatalf("Unvoxel(%d) = (%d,%d,%d), want (%d,%d,%d)", v, jx, jy, jz, ix, iy, iz)
				}
			}
		}
	}
	if len(seen) != g.NV() {
		t.Fatalf("covered %d voxels, want %d", len(seen), g.NV())
	}
}

func TestStridesSemantics(t *testing.T) {
	g := MustNew(8, 4, 2, 1, 1, 1)
	sx, sy, _ := g.Strides()
	v := g.Voxel(3, 2, 1)
	if g.Voxel(4, 2, 1) != v+1 {
		t.Error("x stride is not 1")
	}
	if g.Voxel(3, 3, 1) != v+sx {
		t.Error("y stride is not SX")
	}
	if g.Voxel(3, 2, 2) != v+sx*sy {
		t.Error("z stride is not SX*SY")
	}
}

func TestInterior(t *testing.T) {
	g := MustNew(4, 4, 4, 1, 1, 1)
	if g.Interior(g.Voxel(0, 2, 2)) {
		t.Error("ghost low-x classified interior")
	}
	if g.Interior(g.Voxel(5, 2, 2)) {
		t.Error("ghost high-x classified interior")
	}
	if !g.Interior(g.Voxel(1, 1, 1)) || !g.Interior(g.Voxel(4, 4, 4)) {
		t.Error("interior corner misclassified")
	}
}

func TestLocatePositionRoundTrip(t *testing.T) {
	g := MustNew(6, 5, 4, 0.5, 0.7, 0.9)
	f := func(a, b, c float64) bool {
		lx, ly, lz := g.Extent()
		x := math.Mod(math.Abs(a), lx*0.999)
		y := math.Mod(math.Abs(b), ly*0.999)
		z := math.Mod(math.Abs(c), lz*0.999)
		v, dx, dy, dz, err := g.Locate(x, y, z)
		if err != nil {
			return false
		}
		if dx < -1 || dx > 1 || dy < -1 || dy > 1 || dz < -1 || dz > 1 {
			return false
		}
		if !g.Interior(v) {
			return false
		}
		px, py, pz := g.Position(v, dx, dy, dz)
		return math.Abs(px-x) < 1e-6 && math.Abs(py-y) < 1e-6 && math.Abs(pz-z) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLocateRejectsOutside(t *testing.T) {
	g := MustNew(4, 4, 4, 1, 1, 1)
	if _, _, _, _, err := g.Locate(-0.1, 1, 1); err == nil {
		t.Error("accepted x<0")
	}
	if _, _, _, _, err := g.Locate(1, 4.1, 1); err == nil {
		t.Error("accepted y>Ly")
	}
}

func TestLocateHighFaceClamped(t *testing.T) {
	g := MustNew(4, 4, 4, 1, 1, 1)
	v, dx, _, _, err := g.Locate(4.0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ix, _, _ := g.Unvoxel(v)
	if ix != 4 || dx != 1 {
		t.Fatalf("high face mapped to ix=%d dx=%g, want ix=4 dx=1", ix, dx)
	}
}

func TestCellCenter(t *testing.T) {
	g := MustNew(4, 4, 4, 2, 2, 2)
	x, y, z := g.CellCenter(1, 1, 1)
	if x != 1 || y != 1 || z != 1 {
		t.Fatalf("CellCenter(1,1,1) = (%g,%g,%g), want (1,1,1)", x, y, z)
	}
	x, _, _ = g.CellCenter(4, 1, 1)
	if x != 7 {
		t.Fatalf("CellCenter(4,..).x = %g, want 7", x)
	}
}

func TestCourantLimit(t *testing.T) {
	g := MustNew(4, 4, 4, 1, 1, 1)
	want := 1 / math.Sqrt(3)
	if math.Abs(g.CourantLimit()-want) > 1e-14 {
		t.Fatalf("CourantLimit = %g, want %g", g.CourantLimit(), want)
	}
	// Quasi-1D grid: limit approaches dx as dy,dz → large.
	g2 := MustNew(100, 1, 1, 0.2, 1000, 1000)
	if math.Abs(g2.CourantLimit()-0.2) > 1e-3 {
		t.Fatalf("quasi-1D CourantLimit = %g, want ≈0.2", g2.CourantLimit())
	}
}

func TestChooseDecompExact(t *testing.T) {
	d, err := ChooseDecomp(8, 16, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if d.NRanks() != 8 {
		t.Fatalf("NRanks = %d", d.NRanks())
	}
	// Cube decomposes as 2×2×2 to minimize surface.
	if d.PX != 2 || d.PY != 2 || d.PZ != 2 {
		t.Fatalf("decomp = %d×%d×%d, want 2×2×2", d.PX, d.PY, d.PZ)
	}
}

func TestChooseDecompQuasi1D(t *testing.T) {
	// 64×1×1 cells over 4 ranks must slab-decompose along x.
	d, err := ChooseDecomp(4, 64, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.PX != 4 || d.PY != 1 || d.PZ != 1 {
		t.Fatalf("decomp = %d×%d×%d, want 4×1×1", d.PX, d.PY, d.PZ)
	}
}

func TestChooseDecompImpossible(t *testing.T) {
	if _, err := ChooseDecomp(7, 16, 16, 16); err == nil {
		t.Fatal("accepted indivisible decomposition")
	}
}

func TestDecompCoordRankRoundTrip(t *testing.T) {
	d, err := ChooseDecomp(12, 24, 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < d.NRanks(); r++ {
		cx, cy, cz := d.Coord(r)
		if d.Rank(cx, cy, cz) != r {
			t.Fatalf("rank %d: coord (%d,%d,%d) does not round-trip", r, cx, cy, cz)
		}
	}
}

func TestDecompRankWraps(t *testing.T) {
	d := Decomp{PX: 3, PY: 2, PZ: 2, GNX: 6, GNY: 4, GNZ: 4}
	if d.Rank(-1, 0, 0) != d.Rank(2, 0, 0) {
		t.Error("negative x coordinate did not wrap")
	}
	if d.Rank(3, 1, 1) != d.Rank(0, 1, 1) {
		t.Error("overflow x coordinate did not wrap")
	}
}

// TestDecompLocalTilesDomain holds the local grids of a decomposition's
// uniform layout to tiling the global mesh.
func TestDecompLocalTilesDomain(t *testing.T) {
	d, err := ChooseDecomp(4, 8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	l := Uniform(d)
	totalCells := 0
	for r := 0; r < d.NRanks(); r++ {
		g, err := l.Local(r, 0.5, 0.5, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		totalCells += g.NCells()
	}
	if totalCells != 8*8*4 {
		t.Fatalf("local grids cover %d cells, want %d", totalCells, 8*8*4)
	}
}

func TestDecompNeighborSymmetry(t *testing.T) {
	d, err := ChooseDecomp(8, 8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < d.NRanks(); r++ {
		for axis := 0; axis < 3; axis++ {
			up, _ := d.Neighbor(r, axis, +1)
			back, _ := d.Neighbor(up, axis, -1)
			if back != r {
				t.Fatalf("neighbor not symmetric: rank %d axis %d", r, axis)
			}
		}
	}
}

func TestDecompNeighborWrapFlag(t *testing.T) {
	d := Decomp{PX: 2, PY: 1, PZ: 1, GNX: 4, GNY: 1, GNZ: 1}
	_, wraps := d.Neighbor(0, 0, -1)
	if !wraps {
		t.Error("low-x crossing from rank 0 should wrap")
	}
	_, wraps = d.Neighbor(0, 0, +1)
	if wraps {
		t.Error("interior crossing flagged as wrap")
	}
	// Single-rank axes always wrap.
	_, wraps = d.Neighbor(0, 1, +1)
	if !wraps {
		t.Error("py=1 crossing should wrap")
	}
}

func TestVolumeExtent(t *testing.T) {
	g := MustNew(10, 4, 2, 0.5, 2, 3)
	if g.Volume() != 3 {
		t.Fatalf("Volume = %g, want 3", g.Volume())
	}
	lx, ly, lz := g.Extent()
	if lx != 5 || ly != 8 || lz != 6 {
		t.Fatalf("Extent = (%g,%g,%g)", lx, ly, lz)
	}
}
