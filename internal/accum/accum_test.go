package accum

import (
	"math"
	"testing"

	"govpic/internal/field"
	"govpic/internal/grid"
	"govpic/internal/pipe"
	"govpic/internal/rng"
)

// windowLen is the number of voxels in a's touched window.
func windowLen(a *Array) int { return max(a.hi-a.lo, 0) }

func TestClearWindowed(t *testing.T) {
	g := grid.MustNew(3, 3, 3, 1, 1, 1)
	a := New(g)
	if windowLen(a) != 0 {
		t.Fatalf("fresh array reports window %d", windowLen(a))
	}
	a.A[5].JX[2] = 7
	a.Touch(5)
	a.A[9].JZ[0] = -1
	a.Touch(9)
	if lo, hi := a.Window(); lo != 5 || hi != 10 {
		t.Fatalf("window = [%d,%d), want [5,10)", lo, hi)
	}
	a.Clear()
	for i := range a.A {
		if a.A[i] != (Cell{}) {
			t.Fatalf("voxel %d not cleared", i)
		}
	}
	if windowLen(a) != 0 {
		t.Fatal("Clear did not reset the window")
	}
}

func TestClearFullCatchesUntrackedWrites(t *testing.T) {
	g := grid.MustNew(3, 3, 3, 1, 1, 1)
	a := New(g)
	a.A[5].JX[2] = 7 // no Touch: windowed Clear would miss this
	a.ClearFull()
	for i := range a.A {
		if a.A[i] != (Cell{}) {
			t.Fatalf("voxel %d not cleared", i)
		}
	}
	if windowLen(a) != 0 {
		t.Fatal("ClearFull did not reset the window")
	}
}

// reduceOracle is the per-voxel reduction Reduce replaced: for every
// voxel, a copy of srcs[0]'s cell plus each later src in slice order —
// over the whole grid, sources left untouched.
func reduceOracle(srcs []*Array) []Cell {
	want := make([]Cell, len(srcs[0].A))
	for v := range want {
		c := srcs[0].A[v]
		for _, s := range srcs[1:] {
			o := &s.A[v]
			for j := 0; j < 4; j++ {
				c.JX[j] += o.JX[j]
				c.JY[j] += o.JY[j]
				c.JZ[j] += o.JZ[j]
			}
		}
		want[v] = c
	}
	return want
}

// cloneArrays deep-copies accumulators, windows included.
func cloneArrays(as []*Array) []*Array {
	out := make([]*Array, len(as))
	for i, a := range as {
		c := *a
		c.A = append([]Cell(nil), a.A...)
		out[i] = &c
	}
	return out
}

// sameBits compares two cells slot by slot as bit patterns, so NaN
// payloads and signed zeros count.
func sameBits(a, b Cell) bool {
	for j := 0; j < 4; j++ {
		if math.Float32bits(a.JX[j]) != math.Float32bits(b.JX[j]) ||
			math.Float32bits(a.JY[j]) != math.Float32bits(b.JY[j]) ||
			math.Float32bits(a.JZ[j]) != math.Float32bits(b.JZ[j]) {
			return false
		}
	}
	return true
}

// checkConsumed fails unless every src is all +0.0 with an empty window.
func checkConsumed(t *testing.T, srcs []*Array) {
	t.Helper()
	for b, s := range srcs {
		if windowLen(s) != 0 {
			t.Fatalf("src %d: window %d voxels after Reduce, want empty", b, windowLen(s))
		}
		for v := range s.A {
			if !sameBits(s.A[v], Cell{}) {
				t.Fatalf("src %d: voxel %d = %+v after Reduce, want +0", b, v, s.A[v])
			}
		}
	}
}

// TestReduceWindowedMatchesFull deposits random currents into sparse
// disjoint-ish windows of 8 block accumulators and checks, for 1, 3 and
// 8 workers on fresh copies of the same sources, that the windowed
// Reduce reproduces the full-grid left-associated reduction bit for
// bit, zeroes dst cells left over from a previous wider reduction, and
// leaves every source cleared.
func TestReduceWindowedMatchesFull(t *testing.T) {
	g := grid.MustNew(8, 8, 8, 1, 1, 1)
	src := rng.New(42, 0)
	srcs := make([]*Array, pipe.NumBlocks)
	for b := range srcs {
		srcs[b] = New(g)
		// Each block touches a narrow random band.
		lo := src.Intn(g.NV() - 40)
		for n := 0; n < 30; n++ {
			v := lo + src.Intn(40)
			for j := 0; j < 4; j++ {
				srcs[b].A[v].JX[j] += float32(src.Uniform(-1, 1))
				srcs[b].A[v].JY[j] += float32(src.Uniform(-1, 1))
				srcs[b].A[v].JZ[j] += float32(src.Uniform(-1, 1))
			}
			srcs[b].Touch(v)
		}
	}
	want := reduceOracle(srcs)

	for _, w := range []int{1, 3, 8} {
		in := cloneArrays(srcs)
		dst := New(g)
		// Stale deposit outside this step's union: Reduce must zero it.
		dst.A[g.NV()-1].JY[1] = 99
		dst.Touch(g.NV() - 1)
		n := Reduce(pipe.New(w), dst, in)
		if n <= 0 || n >= g.NV() {
			t.Fatalf("W=%d: union window %d voxels, want sparse nonzero", w, n)
		}
		for v := range want {
			if dst.A[v] != want[v] {
				t.Fatalf("W=%d: voxel %d: windowed %+v != full %+v", w, v, dst.A[v], want[v])
			}
		}
		if lo, hi := dst.Window(); hi-lo != n {
			t.Fatalf("W=%d: dst window [%d,%d) inconsistent with returned %d", w, lo, hi, n)
		}
		checkConsumed(t, in)
	}
}

// FuzzReduceParity checks Reduce (the vector kernel on amd64) and the
// portable sumClearGo loop against the per-voxel oracle, bit for bit,
// on random windows: overlapping, empty, single-source, odd-length,
// with NaN payloads, ±Inf and −0 mixed in by the special byte's bits.
// After Reduce every source is +0.0 with an empty window.
func FuzzReduceParity(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(0), uint8(2))
	f.Add(uint64(2), uint8(1), uint8(0), uint8(1))
	f.Add(uint64(3), uint8(8), uint8(7), uint8(3))
	f.Add(uint64(4), uint8(3), uint8(1), uint8(1))
	f.Add(uint64(5), uint8(8), uint8(6), uint8(2))
	f.Add(uint64(9), uint8(30), uint8(7), uint8(46)) // NaN meets NaN
	f.Fuzz(func(t *testing.T, seed uint64, nsrc, special, workers uint8) {
		r := rng.New(seed, 0)
		g := grid.MustNew(1+r.Intn(7), 1+r.Intn(5), 1+r.Intn(5), 1, 1, 1)
		nv := g.NV()
		value := func() float32 {
			switch k := r.Intn(16); {
			case k == 0 && special&1 != 0: // NaN with a random payload and sign
				return math.Float32frombits(uint32(r.Uint64())&0x807fffff | 0x7f800001)
			case k == 1 && special&2 != 0:
				return float32(math.Inf(1 - 2*r.Intn(2)))
			case k == 2 && special&4 != 0:
				return float32(math.Copysign(0, -1))
			default:
				return float32(r.Uniform(-1, 1))
			}
		}
		srcs := make([]*Array, 1+int(nsrc)%pipe.NumBlocks)
		for b := range srcs {
			srcs[b] = New(g)
			if r.Intn(4) == 0 {
				continue // empty window
			}
			lo := r.Intn(nv)
			hi := lo + 1 + r.Intn(nv-lo)
			for _, v := range []int{lo, hi - 1, lo + r.Intn(hi-lo)} {
				c := &srcs[b].A[v]
				for j := 0; j < 4; j++ {
					c.JX[j], c.JY[j], c.JZ[j] = value(), value(), value()
				}
				srcs[b].Touch(v)
			}
		}
		want := reduceOracle(srcs)

		// The portable loop over the whole grid.
		goSrcs := cloneArrays(srcs)
		rows := make([][]Cell, len(goSrcs))
		for b, s := range goSrcs {
			rows[b] = s.A
		}
		goSum := make([]Cell, nv)
		sumClearGo(goSum, rows)
		for v := range want {
			if !sameBits(goSum[v], want[v]) {
				t.Fatalf("Go loop: voxel %d = %+v, oracle %+v (bitwise)", v, goSum[v], want[v])
			}
		}

		dst := New(g)
		dst.A[nv-1].JZ[3] = 7 // stale
		dst.Touch(nv - 1)
		n := Reduce(pipe.New(1+int(workers)%4), dst, srcs)
		for v := range want {
			if !sameBits(dst.A[v], want[v]) {
				t.Fatalf("Reduce: voxel %d = %+v, oracle %+v (bitwise)", v, dst.A[v], want[v])
			}
		}
		if lo, hi := dst.Window(); n != 0 && hi-lo != n {
			t.Fatalf("dst window [%d,%d) inconsistent with returned %d", lo, hi, n)
		}
		checkConsumed(t, srcs)
	})
}

func TestReduceEmptyWindows(t *testing.T) {
	g := grid.MustNew(4, 4, 4, 1, 1, 1)
	srcs := make([]*Array, 3)
	for b := range srcs {
		srcs[b] = New(g)
	}
	dst := New(g)
	dst.A[7].JX[0] = 5
	dst.Touch(7)
	if n := Reduce(nil, dst, srcs); n != 0 {
		t.Fatalf("empty reduce visited %d voxels", n)
	}
	for v := range dst.A {
		if dst.A[v] != (Cell{}) {
			t.Fatalf("voxel %d survived an all-empty reduce", v)
		}
	}
}

func TestUnloadSingleCellJX(t *testing.T) {
	g := grid.MustNew(4, 4, 4, 0.5, 0.5, 0.5)
	f := field.NewPeriodic(g)
	a := New(g)
	dt := 0.2
	v := g.Voxel(2, 2, 2)
	a.A[v].JX = [4]float32{1, 2, 3, 4}
	a.UnloadPar(nil, f, dt)
	// cx = 1/(4·dt·dy·dz) = 1/(4·0.2·0.25) = 5.
	cx := float32(5)
	cases := []struct {
		ix, iy, iz int
		want       float32
	}{
		{2, 2, 2, 1 * cx}, // slot 0 read at (j,k)
		{2, 3, 2, 2 * cx}, // slot 1 read at (j+1,k)
		{2, 2, 3, 3 * cx}, // slot 2 read at (j,k+1)
		{2, 3, 3, 4 * cx}, // slot 3 read at (j+1,k+1)
	}
	for _, c := range cases {
		got := f.Jx[g.Voxel(c.ix, c.iy, c.iz)]
		if math.Abs(float64(got-c.want)) > 1e-6 {
			t.Fatalf("Jx(%d,%d,%d) = %g, want %g", c.ix, c.iy, c.iz, got, c.want)
		}
	}
}

func TestUnloadAddsToExisting(t *testing.T) {
	g := grid.MustNew(3, 3, 3, 1, 1, 1)
	f := field.NewPeriodic(g)
	a := New(g)
	v := g.Voxel(2, 2, 2)
	f.Jy[v] = 10 // pre-existing antenna current must survive
	a.A[v].JY[0] = 4
	a.UnloadPar(nil, f, 1)
	want := float32(10 + 4.0/4.0)
	if f.Jy[v] != want {
		t.Fatalf("Jy = %g, want %g", f.Jy[v], want)
	}
}

func TestUnloadConservesTotal(t *testing.T) {
	// The sum over all edges of Jx·(4·dt·dy·dz) equals the sum of all
	// accumulated JX slots, whatever the distribution.
	g := grid.MustNew(5, 4, 3, 1, 1, 1)
	f := field.NewPeriodic(g)
	a := New(g)
	var want float64
	for iz := 1; iz <= g.NZ; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			for ix := 1; ix <= g.NX; ix++ {
				v := g.Voxel(ix, iy, iz)
				for s := 0; s < 4; s++ {
					val := float32(ix + 10*iy + 100*iz + s)
					a.A[v].JX[s] = val
					want += float64(val)
				}
			}
		}
	}
	dt := 0.5
	a.UnloadPar(nil, f, dt)
	var got float64
	for iz := 1; iz <= g.NZ+1; iz++ {
		for iy := 1; iy <= g.NY+1; iy++ {
			for ix := 1; ix <= g.NX; ix++ {
				got += float64(f.Jx[g.Voxel(ix, iy, iz)])
			}
		}
	}
	got *= 4 * dt * g.DY * g.DZ
	if math.Abs(got-want) > 1e-6*want {
		t.Fatalf("total Jx weight = %g, want %g", got, want)
	}
}

func TestUnloadJZOrientation(t *testing.T) {
	g := grid.MustNew(4, 4, 4, 1, 1, 1)
	f := field.NewPeriodic(g)
	a := New(g)
	v := g.Voxel(2, 2, 2)
	a.A[v].JZ = [4]float32{4, 0, 0, 0} // slot 0: edge (i,j)
	a.UnloadPar(nil, f, 1)
	if f.Jz[v] != 1 {
		t.Fatalf("Jz slot0 landed wrong: %g", f.Jz[v])
	}
	a.ClearFull()
	f.ClearJ()
	a.A[v].JZ = [4]float32{0, 4, 0, 0} // slot 1: edge (i+1,j)
	a.UnloadPar(nil, f, 1)
	if f.Jz[g.Voxel(3, 2, 2)] != 1 {
		t.Fatalf("Jz slot1 landed wrong")
	}
}

// benchArrays builds NumBlocks accumulators on a production-sized grid
// with each block's window confined to its 1/NumBlocks share of the
// voxels — the steady state a sorted particle buffer produces.
func benchArrays(windowed bool) (*grid.Grid, *Array, []*Array) {
	g := grid.MustNew(48, 16, 16, 0.5, 0.5, 0.5)
	nv := g.NV()
	srcs := make([]*Array, pipe.NumBlocks)
	for b := range srcs {
		srcs[b] = New(g)
		lo, hi := pipe.BlockBounds(nv, pipe.NumBlocks, b)
		if !windowed {
			lo, hi = 0, nv
		}
		srcs[b].A[lo].JX[0] = 1
		srcs[b].Touch(lo)
		srcs[b].A[hi-1].JX[0] = 1
		srcs[b].Touch(hi - 1)
	}
	return g, New(g), srcs
}

// BenchmarkClearWindowed vs BenchmarkClearFull: the per-step cost of
// zeroing 8 block accumulators when windows cover 1/8 of the grid each
// versus the pre-window full-grid clears.
func BenchmarkClearWindowed(b *testing.B) {
	_, _, srcs := benchArrays(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range srcs {
			lo, hi := a.Window() // re-touch so every iteration clears the same span
			a.Clear()
			a.Touch(lo)
			a.Touch(hi - 1)
		}
	}
}

func BenchmarkClearFull(b *testing.B) {
	_, _, srcs := benchArrays(false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range srcs {
			a.ClearFull()
		}
	}
}

func BenchmarkReduceWindowed(b *testing.B) {
	for _, name := range []string{"sliver", "full"} {
		b.Run(name, func(b *testing.B) {
			g, dst, srcs := benchArrays(false)
			// Every block spans the grid, or the same narrow band
			// (union ≈ grid/8). Reduce consumes its sources, so each
			// iteration re-marks the band's ends with the timer stopped.
			v0, v1 := 0, g.NV()-1
			if name == "sliver" {
				v0, v1 = 100, 1500
			}
			mark := func() {
				for _, a := range srcs {
					a.ClearFull()
					for _, v := range []int{v0, v1} {
						a.A[v].JX[0] = 1
						a.Touch(v)
					}
				}
			}
			b.ResetTimer()
			var vox int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mark()
				b.StartTimer()
				vox += Reduce(nil, dst, srcs)
			}
			b.ReportMetric(float64(vox)/float64(b.N)*CellBytes*(2*pipe.NumBlocks+1)/1e6, "MB-moved/op")
		})
	}
}
