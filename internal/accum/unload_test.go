package accum

import (
	"math"
	"testing"

	"govpic/internal/field"
	"govpic/internal/grid"
	"govpic/internal/pipe"
	"govpic/internal/rng"
)

// parityValue draws one value: mostly uniform in [-1, 1], and, for the
// bits set in special, NaNs with a random payload and sign (bit 0), ±0
// (bit 1), subnormals (bit 2) and ±Inf (bit 3), each about one value in
// eight, so two NaNs often meet in one operation.
func parityValue(r *rng.Source, special uint8) float32 {
	switch k := r.Intn(8); {
	case k == 0 && special&1 != 0:
		return math.Float32frombits(uint32(r.Uint64())&0x807fffff | 0x7f800001)
	case k == 1 && special&2 != 0:
		return float32(math.Copysign(0, float64(1-2*r.Intn(2))))
	case k == 2 && special&4 != 0:
		return math.Float32frombits(uint32(r.Uint64()) & 0x807fffff)
	case k == 3 && special&8 != 0:
		return float32(math.Inf(1 - 2*r.Intn(2)))
	}
	return float32(r.Uniform(-1, 1))
}

// unloadSpec is UnloadPar with the family loops in place of the row
// routine.
func unloadSpec(p *pipe.Pool, a *Array, f *field.Fields, dt float64) {
	t := a.task()
	t.unload = t.unloadRangeGo
	a.UnloadPar(p, f, dt)
	t.unload = t.unloadRange
}

// FuzzUnloadParity unloads the same random accumulator — every cell
// filled, ghosts included — into the same random J through UnloadPar
// (the SSE2 row routine on amd64) and through the Go family loops, with
// the pool at W ∈ {1, 2, 3}, on grids with NX 1–20 (every 0–3-edge row
// tail) or 256 and NY, NZ 1–5, and compares J bit for bit: NaN
// payloads, signed zeros and subnormals count.
func FuzzUnloadParity(f *testing.F) {
	f.Add(uint64(1), uint8(15), uint8(3), uint8(3), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(0), uint8(0), uint8(0), uint8(1), uint8(15))
	f.Add(uint64(3), uint8(6), uint8(4), uint8(2), uint8(2), uint8(1))
	f.Add(uint64(4), uint8(20), uint8(1), uint8(4), uint8(1), uint8(7))
	f.Add(uint64(5), uint8(2), uint8(2), uint8(1), uint8(0), uint8(1)) // NaN meets NaN
	f.Add(uint64(6), uint8(13), uint8(0), uint8(3), uint8(2), uint8(15))
	f.Fuzz(func(t *testing.T, seed uint64, nx, ny, nz, w, special uint8) {
		x := 1 + int(nx)%21
		if x == 21 {
			x = 256
		}
		g := grid.MustNew(x, 1+int(ny)%5, 1+int(nz)%5, 0.5, 0.7, 0.9)
		r := rng.New(seed, 0)
		a := New(g)
		for v := range a.A {
			for k := 0; k < 4; k++ {
				a.A[v].JX[k], a.A[v].JY[k], a.A[v].JZ[k] = parityValue(r, special), parityValue(r, special), parityValue(r, special)
			}
		}
		got, want := field.NewPeriodic(g), field.NewPeriodic(g)
		for _, j := range [][]float32{got.Jx, got.Jy, got.Jz} {
			for v := range j {
				j[v] = parityValue(r, special)
			}
		}
		copy(want.Jx, got.Jx)
		copy(want.Jy, got.Jy)
		copy(want.Jz, got.Jz)
		p := pipe.New(1 + int(w)%3)
		a.UnloadPar(p, got, 0.3)
		unloadSpec(p, a, want, 0.3)
		for c, pair := range [][2][]float32{{got.Jx, want.Jx}, {got.Jy, want.Jy}, {got.Jz, want.Jz}} {
			for v := range pair[0] {
				if b0, b1 := math.Float32bits(pair[0][v]), math.Float32bits(pair[1][v]); b0 != b1 {
					ix, iy, iz := g.Unvoxel(v)
					t.Fatalf("J%c voxel (%d,%d,%d) = %#08x, spec %#08x", "xyz"[c], ix, iy, iz, b0, b1)
				}
			}
		}
	})
}

// BenchmarkGridPasses times UnloadPar with the row routine (asm) and
// the family loops (go), inline, on exchange.2rank's tile (16×4×4) and
// thermal.1rank's (256×4×4).
func BenchmarkGridPasses(b *testing.B) {
	for _, tile := range []struct {
		name string
		nx   int
	}{{"exchange", 16}, {"thermal", 256}} {
		for _, kernel := range []string{"asm", "go"} {
			b.Run("UnloadPar/"+tile.name+"/"+kernel, func(b *testing.B) {
				g := grid.MustNew(tile.nx, 4, 4, 1, 1, 1)
				r := rng.New(85, 0)
				a := New(g)
				for v := range a.A {
					for k := 0; k < 4; k++ {
						a.A[v].JX[k], a.A[v].JY[k], a.A[v].JZ[k] = parityValue(r, 0), parityValue(r, 0), parityValue(r, 0)
					}
				}
				f := field.NewPeriodic(g)
				t := a.task()
				if kernel == "go" {
					t.unload = t.unloadRangeGo
				}
				for i := 0; i < b.N; i++ {
					a.UnloadPar(nil, f, 1e3)
				}
			})
		}
	}
}
