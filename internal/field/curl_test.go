package field

import (
	"fmt"
	"math"
	"testing"

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

// parityGrid maps fuzz bytes to a grid: NX 1–20 (every 0–3-voxel row
// tail) or 256, NY and NZ 1–5.
func parityGrid(nx, ny, nz uint8) *grid.Grid {
	x := 1 + int(nx)%21
	if x == 21 {
		x = 256
	}
	return grid.MustNew(x, 1+int(ny)%5, 1+int(nz)%5, 0.5, 0.7, 0.9)
}

// sameArrays fails t unless a and b hold the same bits everywhere.
func sameArrays(t *testing.T, g *grid.Grid, what string, a, b [][]float32) {
	t.Helper()
	for i := range a {
		for v := range a[i] {
			if math.Float32bits(a[i][v]) != math.Float32bits(b[i][v]) {
				ix, iy, iz := g.Unvoxel(v)
				t.Fatalf("%s: array %d voxel (%d,%d,%d) = %#08x, spec %#08x", what, i, ix, iy, iz,
					math.Float32bits(a[i][v]), math.Float32bits(b[i][v]))
			}
		}
	}
}

// cloneFields deep-copies f's arrays onto a fresh state with its BCs.
func cloneFields(f *Fields) *Fields {
	c := MustNew(f.G, f.bc)
	for i, a := range allArrays(c) {
		copy(a, allArrays(f)[i])
	}
	return c
}

// specTask binds f's advances to the Go loops, the asm rows' spec.
func specTask(f *Fields) {
	t := f.curlTask()
	t.advB, t.advE = t.sweepBGo, t.sweepEGo
}

// FuzzCurlParity runs the B and E sweeps (the SSE2 row routines on
// amd64) and their Go loops on the same random fields, every plane
// filled, ghosts included, with the pool at W ∈ {1, 2, 3}, and compares
// every array bit for bit: NaN payloads, signed zeros and subnormals
// count.
func FuzzCurlParity(f *testing.F) {
	f.Add(uint64(1), uint8(15), uint8(3), uint8(3), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(0), uint8(0), uint8(0), uint8(1), uint8(15))
	f.Add(uint64(3), uint8(6), uint8(4), uint8(2), uint8(2), uint8(1))
	f.Add(uint64(4), uint8(20), uint8(1), uint8(4), uint8(1), uint8(7))
	f.Add(uint64(5), uint8(2), uint8(2), uint8(1), uint8(0), uint8(1)) // NaN meets NaN
	f.Add(uint64(6), uint8(13), uint8(0), uint8(3), uint8(2), uint8(15))
	f.Fuzz(func(t *testing.T, seed uint64, nx, ny, nz, w, special uint8) {
		g := parityGrid(nx, ny, nz)
		r := rng.New(seed, 0)
		got := NewPeriodic(g)
		for _, a := range allArrays(got) {
			for v := range a {
				a[v] = parityValue(r, special)
			}
		}
		want := cloneFields(got)
		p := pipe.New(1 + int(w)%3)
		tg, tw := got.curlTask(), want.curlTask()
		for _, c := range []*curl{tg, tw} {
			c.px, c.py, c.pz, c.cj = 0.3, -0.45, 0.7, 0.25
		}
		p.Range(g.NZ, tg.sweepB)
		p.Range(g.NZ, tw.sweepBGo)
		sameArrays(t, g, "sweepB", allArrays(got), allArrays(want))
		p.Range(g.NZ, tg.sweepE)
		p.Range(g.NZ, tw.sweepEGo)
		sameArrays(t, g, "sweepE", allArrays(got), allArrays(want))
	})
}

// TestCurlParityOnEveryFace advances the fields three passes a step
// (B half, E, B half) on periodic, conductor, Mur and Remote faces
// with the row routines and with the Go loops, and checks after each
// pass that every array and Mur's stored planes are bit-identical: the
// snapshot, the Mur apply and UpdateGhostE/B see the planes they saw
// with the loops.
func TestCurlParityOnEveryFace(t *testing.T) {
	const (
		P = Periodic
		C = Conductor
		M = Absorbing
		R = Remote
	)
	for _, tc := range []struct {
		name string
		bc   [NumFaces]BC
	}{
		{"periodic", [NumFaces]BC{P, P, P, P, P, P}},
		{"conductor", [NumFaces]BC{C, C, C, C, C, C}},
		{"mur", [NumFaces]BC{M, M, M, M, M, M}},
		{"remote_x", [NumFaces]BC{R, R, P, P, M, C}},
		{"mixed", [NumFaces]BC{M, C, R, R, C, M}},
	} {
		for _, w := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/W%d", tc.name, w), func(t *testing.T) {
				g := grid.MustNew(7, 3, 4, 0.5, 0.5, 0.5)
				r := rng.New(85, w)
				got := MustNew(g, tc.bc)
				for _, a := range allArrays(got) {
					for v := range a {
						a[v] = parityValue(r, 6)
					}
				}
				want := cloneFields(got)
				specTask(want)
				p := pipe.New(w)
				dt := 0.4 * 0.5 / math.Sqrt(3)
				for step := 0; step < 3; step++ {
					for pass, run := range []func(f *Fields){
						func(f *Fields) { f.AdvanceBPar(p, dt, 0.5) },
						func(f *Fields) { f.AdvanceEPar(p, dt) },
						func(f *Fields) { f.AdvanceBPar(p, dt, 0.5) },
					} {
						run(got)
						run(want)
						what := fmt.Sprintf("step %d pass %d", step, pass)
						sameArrays(t, g, what, allArrays(got), allArrays(want))
						if got.mur != nil {
							for face := range got.mur.old {
								for c := range got.mur.old[face] {
									sameArrays(t, g, what+" Mur planes", got.mur.old[face][c][:], want.mur.old[face][c][:])
								}
							}
						}
					}
				}
			})
		}
	}
}

// BenchmarkGridPasses times the field's two grid passes — AdvanceBPar's
// sweep (one half step) and AdvanceEPar's, without the ghost refresh
// and Mur update around them — with the row routines (asm) and the Go
// loops (go), inline, on exchange.2rank's tile (16×4×4) and
// thermal.1rank's (256×4×4).
func BenchmarkGridPasses(b *testing.B) {
	for _, pass := range []struct {
		name string
		run  func(t *curl, nz int)
	}{
		{"AdvanceBPar", func(t *curl, nz int) { t.advB(0, nz) }},
		{"AdvanceEPar", func(t *curl, nz int) { t.advE(0, nz) }},
	} {
		for _, tile := range gridTiles {
			for _, kernel := range []string{"asm", "go"} {
				b.Run(pass.name+"/"+tile.name+"/"+kernel, func(b *testing.B) {
					f := NewPeriodic(grid.MustNew(tile.nx, 4, 4, 1, 1, 1))
					r := rng.New(85, 0)
					for _, a := range allArrays(f) {
						for v := range a {
							a[v] = parityValue(r, 0)
						}
					}
					if kernel == "go" {
						specTask(f)
					}
					t := f.curlTask()
					t.px, t.py, t.pz, t.cj = 1e-3, 1e-3, 1e-3, 1e-3
					for i := 0; i < b.N; i++ {
						pass.run(t, f.G.NZ)
					}
				})
			}
		}
	}
}

// gridTiles are the benchmark tiles: a rank's grid on exchange.2rank
// and on thermal.1rank.
var gridTiles = []struct {
	name string
	nx   int
}{{"exchange", 16}, {"thermal", 256}}
