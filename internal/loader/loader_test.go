package loader

import (
	"math"
	"slices"
	"testing"

	"govpic/internal/grid"
	"govpic/internal/particle"
	"govpic/internal/pipe"
	"govpic/internal/rng"
)

func TestLoadValidation(t *testing.T) {
	g := grid.MustNew(4, 4, 4, 1, 1, 1)
	gl := Global{NX: 4, NY: 4, NZ: 4}
	buf := particle.NewBuffer(0)
	if _, err := Load(g, gl, Params{Profile: Uniform(0.1), PPC: 0, Nref: 0.1}, nil, buf); err == nil {
		t.Error("accepted PPC=0")
	}
	if _, err := Load(g, gl, Params{Profile: Uniform(0.1), PPC: 4, Nref: 0}, nil, buf); err == nil {
		t.Error("accepted Nref=0")
	}
}

func TestLoadCountAndWeights(t *testing.T) {
	g := grid.MustNew(4, 3, 2, 0.5, 0.5, 0.5)
	gl := Global{NX: 4, NY: 3, NZ: 2}
	buf := particle.NewBuffer(0)
	n0 := 0.1
	ppc := 16
	got, err := Load(g, gl, Params{Profile: Uniform(n0), PPC: ppc, Nref: n0, Seed: 1}, nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	want := g.NCells() * ppc
	if got != want || buf.N() != want {
		t.Fatalf("loaded %d particles, want %d", got, want)
	}
	// Total charge-weight must equal n0 · domain volume.
	var sumW float64
	for _, p := range buf.All() {
		sumW += float64(p.W)
	}
	lx, ly, lz := g.Extent()
	wantW := n0 * lx * ly * lz
	if math.Abs(sumW-wantW) > 1e-4*wantW {
		t.Fatalf("Σw = %g, want %g", sumW, wantW)
	}
}

func TestLoadThermalSpread(t *testing.T) {
	g := grid.MustNew(8, 8, 8, 1, 1, 1)
	gl := Global{NX: 8, NY: 8, NZ: 8}
	buf := particle.NewBuffer(0)
	uth := 0.05
	if _, err := Load(g, gl, Params{Profile: Uniform(0.2), PPC: 64, Nref: 0.2,
		Uth: [3]float64{uth, uth, uth}, Drift: [3]float64{0.3, 0, 0}, Seed: 2}, nil, buf); err != nil {
		t.Fatal(err)
	}
	var mx, m2y float64
	for _, p := range buf.All() {
		mx += float64(p.Ux)
		m2y += float64(p.Uy) * float64(p.Uy)
	}
	n := float64(buf.N())
	if math.Abs(mx/n-0.3) > 0.002 {
		t.Fatalf("mean ux = %g, want 0.3", mx/n)
	}
	if math.Abs(math.Sqrt(m2y/n)-uth)/uth > 0.02 {
		t.Fatalf("uy spread = %g, want %g", math.Sqrt(m2y/n), uth)
	}
}

func TestLoadDecompositionInvariant(t *testing.T) {
	// A global 8×2×2 mesh loaded as one tile vs two 4×2×2 tiles must
	// produce the identical global particle set.
	gl := Global{NX: 8, NY: 2, NZ: 2}
	p := Params{Profile: Uniform(0.1), PPC: 8, Nref: 0.1,
		Uth: [3]float64{0.1, 0.1, 0.1}, Seed: 42}

	whole := particle.NewBuffer(0)
	gw := grid.MustNew(8, 2, 2, 1, 1, 1)
	if _, err := Load(gw, gl, p, nil, whole); err != nil {
		t.Fatal(err)
	}

	partA := particle.NewBuffer(0)
	ga := grid.MustNew(4, 2, 2, 1, 1, 1) // tile at x0=0
	if _, err := Load(ga, gl, p, nil, partA); err != nil {
		t.Fatal(err)
	}
	partB := particle.NewBuffer(0)
	gb, _ := grid.New(4, 2, 2, 1, 1, 1, 4, 0, 0) // tile at x0=4
	if _, err := Load(gb, gl, p, nil, partB); err != nil {
		t.Fatal(err)
	}
	if partA.N()+partB.N() != whole.N() {
		t.Fatalf("split load has %d+%d particles, whole has %d", partA.N(), partB.N(), whole.N())
	}
	// Compare by global position and momentum. The whole-grid load lists
	// cells in the same global order, with tile A's cells interleaved;
	// match particle-by-particle through global positions.
	type key struct{ x, y, z, ux float32 }
	wholeSet := map[key]int{}
	for _, q := range whole.All() {
		x, y, z := gw.Position(int(q.Voxel), q.Dx, q.Dy, q.Dz)
		wholeSet[key{float32(x), float32(y), float32(z), q.Ux}]++
	}
	check := func(g *grid.Grid, b *particle.Buffer) {
		for _, q := range b.All() {
			x, y, z := g.Position(int(q.Voxel), q.Dx, q.Dy, q.Dz)
			k := key{float32(x), float32(y), float32(z), q.Ux}
			if wholeSet[k] == 0 {
				t.Fatalf("tile particle %+v missing from whole load", k)
			}
			wholeSet[k]--
		}
	}
	check(ga, partA)
	check(gb, partB)
}

func TestSlabProfile(t *testing.T) {
	p := Slab(0.1, 10, 30, 5)
	cases := []struct{ x, want float64 }{
		{5, 0}, {10, 0}, {12.5, 0.05}, {15, 0.1}, {20, 0.1}, {27.5, 0.05}, {30, 0}, {35, 0},
	}
	for _, c := range cases {
		if got := p(c.x, 0, 0); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Slab(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestLoadSkipsVacuum(t *testing.T) {
	g := grid.MustNew(10, 1, 1, 1, 1, 1)
	gl := Global{NX: 10, NY: 1, NZ: 1}
	buf := particle.NewBuffer(0)
	// Plasma only in x ∈ [4, 6].
	if _, err := Load(g, gl, Params{Profile: Slab(0.1, 4, 6, 0), PPC: 10, Nref: 0.1, Seed: 3}, nil, buf); err != nil {
		t.Fatal(err)
	}
	for _, p := range buf.All() {
		x, _, _ := g.Position(int(p.Voxel), p.Dx, p.Dy, p.Dz)
		if x < 4 || x > 6 {
			t.Fatalf("particle at x=%g outside slab", x)
		}
	}
	if buf.N() == 0 {
		t.Fatal("slab loaded no particles")
	}
}

func TestLoadNeutralizing(t *testing.T) {
	g := grid.MustNew(4, 4, 4, 1, 1, 1)
	gl := Global{NX: 4, NY: 4, NZ: 4}
	electrons := particle.NewBuffer(0)
	if _, err := Load(g, gl, Params{Profile: Uniform(0.1), PPC: 8, Nref: 0.1, Seed: 4}, nil, electrons); err != nil {
		t.Fatal(err)
	}
	ions := particle.NewBuffer(0)
	if err := LoadNeutralizing(electrons, 2, [3]float64{0.001, 0.001, 0.001}, 4, ions); err != nil {
		t.Fatal(err)
	}
	if ions.N() != electrons.N() {
		t.Fatalf("ion count %d != electron count %d", ions.N(), electrons.N())
	}
	for i := 0; i < ions.N(); i++ {
		e, ion := electrons.At(i), ions.At(i)
		if e.Voxel != ion.Voxel || e.Dx != ion.Dx || e.Dy != ion.Dy || e.Dz != ion.Dz {
			t.Fatal("ion not co-located with its electron")
		}
		if math.Abs(float64(ion.W-e.W/2)) > 1e-9 {
			t.Fatalf("ion weight %g, want %g", ion.W, e.W/2)
		}
	}
	if err := LoadNeutralizing(electrons, 0, [3]float64{}, 1, ions); err == nil {
		t.Error("accepted z=0")
	}
}

// serialLoad is the loader's test oracle: one pass over the tile's
// cells in voxel order, appending each cell's particles from its own
// (seed, global cell id) stream.
func serialLoad(g *grid.Grid, gl Global, p Params) *particle.Buffer {
	buf := particle.NewBuffer(0)
	gx0 := int(math.Round(g.X0 / g.DX))
	gy0 := int(math.Round(g.Y0 / g.DY))
	gz0 := int(math.Round(g.Z0 / g.DZ))
	wRef := p.Nref * g.Volume() / float64(p.PPC)
	for iz := 1; iz <= g.NZ; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			for ix := 1; ix <= g.NX; ix++ {
				cx, cy, cz := g.CellCenter(ix, iy, iz)
				if p.Profile(cx, cy, cz) <= 0 {
					continue
				}
				gid := (gx0 + ix - 1) + gl.NX*((gy0+iy-1)+gl.NY*(gz0+iz-1))
				src := rng.New(p.Seed, gid*64+p.StreamSalt)
				v := int32(g.Voxel(ix, iy, iz))
				for n := 0; n < p.PPC; n++ {
					dx := float32(src.Uniform(-1, 1))
					dy := float32(src.Uniform(-1, 1))
					dz := float32(src.Uniform(-1, 1))
					px, py, pz := g.Position(int(v), dx, dy, dz)
					dens := p.Profile(px, py, pz)
					if dens <= 0 {
						continue
					}
					buf.Append(particle.Particle{
						Dx: dx, Dy: dy, Dz: dz, Voxel: v,
						Ux: float32(p.Drift[0] + src.Maxwellian(p.Uth[0])),
						Uy: float32(p.Drift[1] + src.Maxwellian(p.Uth[1])),
						Uz: float32(p.Drift[2] + src.Maxwellian(p.Uth[2])),
						W:  float32(wRef * dens / p.Nref),
					})
				}
			}
		}
	}
	return buf
}

// TestLoadContract pins what Load promises at every worker count: the
// particles are the serial oracle's, byte for byte and in the same
// order, so voxels never decrease and a rank needs no sort at load.
// The Slab case's ramps drop particles past the slab's edges, so its
// ranges come up short and the holes are closed.
func TestLoadContract(t *testing.T) {
	uth := [3]float64{0.05, 0.05, 0.05}
	off, _ := grid.New(6, 3, 2, 0.5, 0.5, 0.5, 2, 1.5, 0.5)
	cases := []struct {
		name  string
		g     *grid.Grid
		gl    Global
		p     Params
		holes bool
	}{
		{"uniform", grid.MustNew(8, 4, 3, 0.5, 0.5, 0.5), Global{NX: 8, NY: 4, NZ: 3},
			Params{Profile: Uniform(0.2), PPC: 16, Nref: 0.2, Uth: uth, Seed: 7}, false},
		{"slab-ramps", grid.MustNew(40, 2, 2, 0.5, 0.5, 0.5), Global{NX: 40, NY: 2, NZ: 2},
			Params{Profile: Slab(0.2, 3.6, 16.4, 4), PPC: 8, Nref: 0.2, Uth: uth, Seed: 8}, true},
		{"off-origin", off, Global{NX: 16, NY: 8, NZ: 4},
			Params{Profile: Uniform(0.1), PPC: 4, Nref: 0.1, Uth: uth, Seed: 9, StreamSalt: 2}, false},
		{"1d", grid.MustNew(37, 1, 1, 0.5, 1, 1), Global{NX: 37, NY: 1, NZ: 1},
			Params{Profile: Slab(0.3, 2.2, 16.3, 2), PPC: 5, Nref: 0.3, Uth: uth, Seed: 10}, true},
		{"ppc1", grid.MustNew(5, 3, 3, 0.5, 0.5, 0.5), Global{NX: 5, NY: 3, NZ: 3},
			Params{Profile: Uniform(0.2), PPC: 1, Nref: 0.2, Uth: uth, Seed: 11}, false},
	}
	for _, c := range cases {
		want := serialLoad(c.g, c.gl, c.p).All()
		bound := 0
		for v := 0; v < c.g.NV(); v++ {
			if ix, iy, iz := c.g.Unvoxel(v); c.g.Interior(v) {
				if x, y, z := c.g.CellCenter(ix, iy, iz); c.p.Profile(x, y, z) > 0 {
					bound += c.p.PPC
				}
			}
		}
		if (len(want) < bound) != c.holes {
			t.Fatalf("%s: oracle loads %d of at most %d particles; the case wants holes = %v", c.name, len(want), bound, c.holes)
		}
		for _, w := range []int{1, 2, 3, 8} {
			buf := particle.NewBuffer(0)
			n, err := Load(c.g, c.gl, c.p, pipe.New(w), buf)
			if err != nil {
				t.Fatal(err)
			}
			got := buf.All()
			if n != len(want) || !slices.Equal(got, want) {
				t.Fatalf("%s W=%d: %d particles differ from the serial oracle's %d", c.name, w, n, len(want))
			}
			for i := 1; i < len(got); i++ {
				if got[i].Voxel < got[i-1].Voxel {
					t.Fatalf("%s W=%d: voxel %d at %d follows %d", c.name, w, got[i].Voxel, i, got[i-1].Voxel)
				}
			}
		}
	}
}

// TestLoadAllocsPerTile: a load allocates no object per cell (each
// cell's stream lives on the stack), so a tile of 16 cells and one of
// 512 allocate the same few objects.
func TestLoadAllocsPerTile(t *testing.T) {
	allocs := func(nx, ny, nz int) float64 {
		g := grid.MustNew(nx, ny, nz, 0.5, 0.5, 0.5)
		gl := Global{NX: nx, NY: ny, NZ: nz}
		p := Params{Profile: Uniform(0.2), PPC: 2, Nref: 0.2, Uth: [3]float64{0.1, 0.1, 0.1}, Seed: 3}
		return testing.AllocsPerRun(5, func() {
			if _, err := Load(g, gl, p, nil, particle.NewBuffer(0)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(4, 2, 2), allocs(32, 4, 4); large != small {
		t.Fatalf("a 512-cell load allocates %.0f objects, a 16-cell one %.0f: some allocation is per cell", large, small)
	}
}

// TestLoadAppends: Load and LoadNeutralizing add to what their output
// buffer holds, leaving the particles already there in place.
func TestLoadAppends(t *testing.T) {
	g := grid.MustNew(6, 2, 2, 0.5, 0.5, 0.5)
	gl := Global{NX: 6, NY: 2, NZ: 2}
	p := Params{Profile: Slab(0.2, 0.7, 2.6, 0.5), PPC: 3, Nref: 0.2, Seed: 12}
	buf := particle.NewBuffer(0)
	buf.Append(particle.Particle{Voxel: -1, W: 5})
	n, err := Load(g, gl, p, pipe.New(2), buf)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]particle.Particle{{Voxel: -1, W: 5}}, serialLoad(g, gl, p).All()...)
	if n != len(want)-1 || !slices.Equal(buf.All(), want) {
		t.Fatalf("Load onto one particle: %d loaded, buffer %d long; want %d after the first", n, buf.N(), len(want)-1)
	}
	ions := particle.NewBuffer(0)
	ions.Append(particle.Particle{Voxel: -2})
	if err := LoadNeutralizing(buf, 1, [3]float64{}, 1, ions); err != nil {
		t.Fatal(err)
	}
	if ions.N() != 1+len(want) || ions.Voxel(0) != -2 || ions.Voxel(1) != -1 || ions.Voxel(len(want)) != want[len(want)-1].Voxel {
		t.Fatalf("LoadNeutralizing onto one ion: %d ions, want %d co-located after the first", ions.N(), 1+len(want))
	}
}
