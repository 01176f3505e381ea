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

// TestLocatePositionRoundTrip locates a particle by its cell and
// offsets: Position puts offsets (0,0,0) on CellCenter, −1 and +1 on the
// cell's low and high faces, and every offset between inside the cell,
// half a cell per unit of offset from the center.
func TestLocatePositionRoundTrip(t *testing.T) {
	g := MustNew(6, 5, 4, 0.5, 0.7, 0.9)
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	unit := func(u float32) float32 { return float32(math.Mod(math.Abs(float64(u)), 2)) - 1 }
	f := func(i, j, k uint8, a, b, c float32) bool {
		ix, iy, iz := 1+int(i)%g.NX, 1+int(j)%g.NY, 1+int(k)%g.NZ
		v := g.Voxel(ix, iy, iz)
		cx, cy, cz := g.CellCenter(ix, iy, iz)
		if px, py, pz := g.Position(v, 0, 0, 0); px != cx || py != cy || pz != cz {
			return false
		}
		lx, ly, lz := g.CellLowCorner(ix, iy, iz)
		if px, py, pz := g.Position(v, -1, -1, -1); !near(px, lx) || !near(py, ly) || !near(pz, lz) {
			return false
		}
		hx, hy, hz := g.CellLowCorner(ix+1, iy+1, iz+1)
		if px, py, pz := g.Position(v, 1, 1, 1); !near(px, hx) || !near(py, hy) || !near(pz, hz) {
			return false
		}
		dx, dy, dz := unit(a), unit(b), unit(c)
		px, py, pz := g.Position(v, dx, dy, dz)
		return near(px, cx+0.5*g.DX*float64(dx)) && near(py, cy+0.5*g.DY*float64(dy)) &&
			near(pz, cz+0.5*g.DZ*float64(dz)) &&
			px > lx-1e-9 && px < hx+1e-9 && py > ly-1e-9 && py < hy+1e-9 && pz > lz-1e-9 && pz < hz+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
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
