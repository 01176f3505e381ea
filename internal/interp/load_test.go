package interp

import (
	"math"
	"testing"
	"unsafe"

	"govpic/internal/field"
	"govpic/internal/grid"
	"govpic/internal/pipe"
	"govpic/internal/rng"
)

// parityValue draws one field value: mostly uniform in [-1, 1], and,
// for the bits set in special, NaNs with a random payload and sign (bit
// 0), ±0 (bit 1), subnormals (bit 2) and ±Inf (bit 3), each about one
// value in eight, so two NaNs often meet in one operation.
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

// coeffBits is c's 18 coefficients as bit patterns.
func coeffBits(c *Coeffs) [18]uint32 {
	return *(*[18]uint32)(unsafe.Pointer(c))
}

// sameRecord reports whether records a and b hold the same bits, or, in
// race builds, differ only in the payloads of NaNs (race_test.go).
func sameRecord(a, b [18]uint32) bool {
	for i := range a {
		nan := math.IsNaN(float64(math.Float32frombits(a[i]))) && math.IsNaN(float64(math.Float32frombits(b[i])))
		if a[i] != b[i] && !(raceBuild && nan) {
			return false
		}
	}
	return true
}

// FuzzLoadParity loads the table through LoadPar (the SSE2 row routine
// on amd64) with the pool at W ∈ {1, 2, 3}, and through loadPlanesGo,
// from the same random fields with every plane filled, on grids with NX
// 1–20 (every 0–3-voxel row tail) or 256 and NY, NZ 1–5. Every record —
// the ghost ones, which both leave as they were, included — must match
// bit for bit: NaN payloads, signed zeros and subnormals count.
func FuzzLoadParity(f *testing.F) {
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
		g := grid.MustNew(x, 1+int(ny)%5, 1+int(nz)%5, 1, 1, 1)
		r := rng.New(seed, 0)
		fl := field.NewPeriodic(g)
		for _, a := range [][]float32{fl.Ex, fl.Ey, fl.Ez, fl.Bx, fl.By, fl.Bz} {
			for v := range a {
				a[v] = parityValue(r, special)
			}
		}
		got, want := NewTable(g), NewTable(g)
		for v := range got.C {
			got.C[v].DCBzDz = float32(v) // a record neither load writes
			want.C[v] = got.C[v]
		}
		got.LoadPar(pipe.New(1+int(w)%3), fl)
		sx, sy, _ := g.Strides()
		want.loadPlanesGo(1, g.NZ, sx, sx*sy, fl.Ex, fl.Ey, fl.Ez, fl.Bx, fl.By, fl.Bz)
		for v := range want.C {
			if a, b := coeffBits(&got.C[v]), coeffBits(&want.C[v]); !sameRecord(a, b) {
				ix, iy, iz := g.Unvoxel(v)
				t.Fatalf("voxel (%d,%d,%d): record %#08x, spec %#08x", ix, iy, iz, a, b)
			}
		}
	})
}

// loadRangeGo is loadRange with the Go loop in place of the row routine.
func (t *Table) loadRangeGo(lo, hi int) {
	f := t.src
	sx, sy, _ := t.G.Strides()
	t.loadPlanesGo(lo+1, hi, sx, sx*sy, f.Ex, f.Ey, f.Ez, f.Bx, f.By, f.Bz)
}

// BenchmarkGridPasses times LoadPar with the row routine (asm) and the
// Go loop (go), inline, on exchange.2rank's tile (16×4×4) and
// thermal.1rank's (256×4×4).
func BenchmarkGridPasses(b *testing.B) {
	for _, tile := range []struct {
		name string
		nx   int
	}{{"exchange", 16}, {"thermal", 256}} {
		for _, kernel := range []string{"asm", "go"} {
			b.Run("LoadPar/"+tile.name+"/"+kernel, func(b *testing.B) {
				g := grid.MustNew(tile.nx, 4, 4, 1, 1, 1)
				f := field.NewPeriodic(g)
				r := rng.New(85, 0)
				for _, a := range [][]float32{f.Ex, f.Ey, f.Ez, f.Bx, f.By, f.Bz} {
					for v := range a {
						a[v] = parityValue(r, 0)
					}
				}
				tab := NewTable(g)
				if kernel == "go" {
					tab.load = tab.loadRangeGo
				}
				for i := 0; i < b.N; i++ {
					tab.LoadPar(nil, f)
				}
			})
		}
	}
}
