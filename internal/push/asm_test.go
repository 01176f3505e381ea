package push

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"govpic/internal/particle"
	"govpic/internal/pipe"
	"govpic/internal/rng"
)

// The asm↔go parity suite. The AVX2 block routine claims bitwise
// identity with the Go one — not tolerance, identity — so every
// comparison here is on bit patterns (plain float comparison would
// wrongly flag identical NaNs as diverged; the populations
// deliberately include NaN-position and NaN-momentum particles, which
// the crosser mask must flag and moveP's backstop must handle the
// same way on every path).

func bitEq32(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

// sameSlot reports whether two accumulator slots hold the same value:
// the same bits, or, in a race build, both NaN (see raceBuild).
func sameSlot(a, b float32) bool { return bitEq32(a, b) || raceBuild && a != a && b != b }

func bitEqParticle(a, b particle.Particle) bool {
	return bitEq32(a.Dx, b.Dx) && bitEq32(a.Dy, b.Dy) && bitEq32(a.Dz, b.Dz) &&
		a.Voxel == b.Voxel &&
		bitEq32(a.Ux, b.Ux) && bitEq32(a.Uy, b.Uy) && bitEq32(a.Uz, b.Uz) &&
		bitEq32(a.W, b.W)
}

func bitEqOutgoing(a, b Outgoing) bool {
	return bitEqParticle(a.P, b.P) &&
		bitEq32(a.DispX, b.DispX) && bitEq32(a.DispY, b.DispY) && bitEq32(a.DispZ, b.DispZ)
}

// asmParityRig builds the adversarial population of the PR 6 lane
// matrix — a partially filled trailing block and one block whose every
// lane crosses on the first step — plus NaN-position and NaN-momentum
// particles, which both kernels must defer to moveP identically.
func asmParityRig(n int, seed uint64, sorted bool) (*rig, *Kernel) {
	r := newRig(6, 5, 4, 0.5)
	r.smoothFields(0.3)
	r.loadRandom(n, 0.5, seed)
	if n >= particle.Lanes {
		v := int32(r.g.Voxel(3, 2, 2))
		for l := 0; l < particle.Lanes; l++ {
			r.buf.Append(particle.Particle{
				Voxel: v, Dx: 0.98, Dy: float32(l) * 0.01, Ux: 3, W: 1,
			})
		}
		nan := float32(math.NaN())
		r.buf.Append(particle.Particle{Voxel: v, Dx: nan, W: 1})
		r.buf.Append(particle.Particle{Voxel: v, Dy: nan, Ux: 0.5, W: 1})
		r.buf.Append(particle.Particle{Voxel: v, Uz: nan, W: 1})
	}
	if sorted {
		sortByVoxel(r.buf)
	} else {
		src := rng.New(seed^0x9e37, 1)
		for i := r.buf.N() - 1; i > 0; i-- {
			j := src.Intn(i + 1)
			pi, pj := r.buf.At(i), r.buf.At(j)
			r.buf.Set(i, pj)
			r.buf.Set(j, pi)
		}
	}
	return r, r.kernel(-1, 1, 0.24)
}

// checkSameWindow requires equal touched accumulator windows. The
// sweep's window is the min/max of its run voxels, reported once per
// range; the oracle's grows deposit by deposit.
func checkSameWindow(t *testing.T, label string, ra, rb *rig) {
	t.Helper()
	alo, ahi := ra.acc.Window()
	blo, bhi := rb.acc.Window()
	if alo != blo || ahi != bhi {
		t.Fatalf("%s: accumulator windows diverged: [%d,%d) vs [%d,%d)", label, alo, ahi, blo, bhi)
	}
}

// checkSameState requires bitwise-identical particles, accumulators,
// outgoing batches and counters, and equal accumulator windows, between
// two kernels that pushed the same population. sameRuns also holds
// NRuns equal — true between shapes of the sweep, false against the
// oracle, which counts one run per particle.
func checkSameState(t *testing.T, label string, ra *rig, ka *Kernel, rb *rig, kb *Kernel, sameRuns bool) {
	t.Helper()
	if ra.buf.N() != rb.buf.N() {
		t.Fatalf("%s: particle counts diverged: %d vs %d", label, ra.buf.N(), rb.buf.N())
	}
	checkSameWindow(t, label, ra, rb)
	for i := 0; i < ra.buf.N(); i++ {
		if !bitEqParticle(ra.buf.At(i), rb.buf.At(i)) {
			t.Fatalf("%s: particle %d diverged:\n%+v\n%+v", label, i, ra.buf.At(i), rb.buf.At(i))
		}
	}
	for v := range ra.acc.A {
		a, b := &ra.acc.A[v], &rb.acc.A[v]
		for j := 0; j < 4; j++ {
			if !sameSlot(a.JX[j], b.JX[j]) || !sameSlot(a.JY[j], b.JY[j]) || !sameSlot(a.JZ[j], b.JZ[j]) {
				t.Fatalf("%s: accumulator voxel %d diverged:\n%+v\n%+v", label, v, *a, *b)
			}
		}
	}
	for f := range ka.Out {
		if len(ka.Out[f]) != len(kb.Out[f]) {
			t.Fatalf("%s: face %d outgoing count diverged: %d vs %d",
				label, f, len(ka.Out[f]), len(kb.Out[f]))
		}
		for i := range ka.Out[f] {
			if !bitEqOutgoing(ka.Out[f][i], kb.Out[f][i]) {
				t.Fatalf("%s: face %d outgoing %d diverged", label, f, i)
			}
		}
	}
	if ka.NPushed != kb.NPushed || ka.NMoved != kb.NMoved || ka.NSeg != kb.NSeg ||
		ka.NLost != kb.NLost || (sameRuns && ka.NRuns != kb.NRuns) ||
		math.Float64bits(ka.ELost) != math.Float64bits(kb.ELost) {
		t.Fatalf("%s: counters diverged:\n{p %d m %d s %d l %d r %d e %g}\n{p %d m %d s %d l %d r %d e %g}",
			label, ka.NPushed, ka.NMoved, ka.NSeg, ka.NLost, ka.NRuns, ka.ELost,
			kb.NPushed, kb.NMoved, kb.NSeg, kb.NLost, kb.NRuns, kb.ELost)
	}
}

// checkSameSweep requires bitwise-identical particles, accumulators and
// recorded movers after two advanceRange calls over the same population.
func checkSameSweep(t *testing.T, label string, ra *rig, bsA *BlockState, rg *rig, bsG *BlockState) {
	t.Helper()
	for i := 0; i < ra.buf.N(); i++ {
		if !bitEqParticle(ra.buf.At(i), rg.buf.At(i)) {
			t.Fatalf("%s: particle %d diverged:\nasm %+v\ngo  %+v", label, i, ra.buf.At(i), rg.buf.At(i))
		}
	}
	for v := range ra.acc.A {
		a, g := &ra.acc.A[v], &rg.acc.A[v]
		for j := 0; j < 4; j++ {
			if !bitEq32(a.JX[j], g.JX[j]) || !bitEq32(a.JY[j], g.JY[j]) || !bitEq32(a.JZ[j], g.JZ[j]) {
				t.Fatalf("%s: accumulator voxel %d diverged", label, v)
			}
		}
	}
	if len(bsA.Movers) != len(bsG.Movers) {
		t.Fatalf("%s: mover counts diverged: asm %d go %d", label, len(bsA.Movers), len(bsG.Movers))
	}
	for i, a := range bsA.Movers {
		g := bsG.Movers[i]
		if a.Idx != g.Idx || !bitEq32(a.DispX, g.DispX) || !bitEq32(a.DispY, g.DispY) || !bitEq32(a.DispZ, g.DispZ) {
			t.Fatalf("%s: mover %d diverged:\nasm %+v\ngo  %+v", label, i, a, g)
		}
	}
}

// TestAsmKernelMatchesGoMatrix is the asm↔go gate: each assembly block
// routine (asmShapes) and the Go one must produce bitwise-identical
// state — accumulators included, which the oracle matrix can hold only
// to rounding on the pipelined path — through multiple steps across the
// serial path and the pipelined path with W ∈ {1, 3, 8}, sorted and
// adversarially shuffled, each regrouped to every minimum span width
// (minSpans), over populations with a partial trailing block, an
// all-lanes-crossing block and NaN particles.
func TestAsmKernelMatchesGoMatrix(t *testing.T) {
	if !AsmAvailable() {
		t.Skip("assembly kernel unavailable on this build/CPU")
	}
	for _, m := range minSpans {
		t.Run(fmt.Sprintf("spanMin=%d", m), func(t *testing.T) {
			asmGoMatrix(t, m)
		})
	}
}

// asmShapes is sweepShapes without the Go routine.
func asmShapes() []string { return sweepShapes()[1:] }

// asmGoMatrix is one minimum-span-width pass of the asm↔go gate.
func asmGoMatrix(t *testing.T, m int) {
	const steps = 4
	mk := func(sorted bool) (*rig, *Kernel) {
		r, k := asmParityRig(4013, 41, sorted)
		groupSpans(r.buf, m)
		return r, k
	}
	for _, sh := range asmShapes() {
		for _, sorted := range []bool{true, false} {
			// Serial path.
			ra, ka := mk(sorted)
			rg, kg := mk(sorted)
			useShape(ka, sh)
			label := fmt.Sprintf("%s serial sorted=%v", sh, sorted)
			for s := 0; s < steps; s++ {
				ra.acc.Clear()
				rg.acc.Clear()
				ka.AdvanceP(ra.buf)
				kg.AdvanceP(rg.buf)
				checkSameState(t, fmt.Sprintf("%s step %d", label, s), ra, ka, rg, kg, true)
			}
			if ka.NMoved < int64(steps*particle.Lanes) {
				t.Fatalf("%s: only %d crossings; the crosser mask path was not exercised", label, ka.NMoved)
			}

			// Pipelined path across worker counts.
			for _, w := range []int{1, 3, 8} {
				ra, ka := mk(sorted)
				rg, kg := mk(sorted)
				useShape(ka, sh)
				pool := pipe.New(w)
				accsA, blocksA := blockFixture(ra)
				accsG, blocksG := blockFixture(rg)
				label := fmt.Sprintf("%s W=%d sorted=%v", sh, w, sorted)
				for s := 0; s < steps; s++ {
					runBlockedStep(ka, ra, pool, accsA, blocksA)
					runBlockedStep(kg, rg, pool, accsG, blocksG)
					checkSameState(t, fmt.Sprintf("%s step %d", label, s), ra, ka, rg, kg, true)
				}
			}
		}
	}
}

// TestAsmKernelMoverParity compares the movers advanceRange records —
// index order, displacements, bit patterns — before any is finished,
// isolating the crosser mask and displacement stage from the shared
// mover machinery.
func TestAsmKernelMoverParity(t *testing.T) {
	if !AsmAvailable() {
		t.Skip("assembly kernel unavailable on this build/CPU")
	}
	for _, sh := range asmShapes() {
		ra, ka := asmParityRig(2013, 7, true)
		rg, kg := asmParityRig(2013, 7, true)
		useShape(ka, sh)
		var bsA, bsG BlockState
		accA, _ := blockFixture(ra)
		accG, _ := blockFixture(rg)
		// Deliberately lane-misaligned range bounds: spans clipped at both
		// ends of the range must mask identically.
		lo, hi := 3, ra.buf.N()-5
		ka.advanceRange(ra.buf, lo, hi, accA[0], &bsA)
		kg.advanceRange(rg.buf, lo, hi, accG[0], &bsG)
		if len(bsA.Movers) == 0 {
			t.Fatal("population produced no movers; crosser parity not exercised")
		}
		if len(bsA.Movers) != len(bsG.Movers) {
			t.Fatalf("%s: mover counts diverged: asm %d go %d", sh, len(bsA.Movers), len(bsG.Movers))
		}
		for i := range bsA.Movers {
			a, g := bsA.Movers[i], bsG.Movers[i]
			if a.Idx != g.Idx || !bitEq32(a.DispX, g.DispX) || !bitEq32(a.DispY, g.DispY) || !bitEq32(a.DispZ, g.DispZ) {
				t.Fatalf("%s: mover %d diverged:\nasm %+v\ngo  %+v", sh, i, a, g)
			}
		}
	}
}

// TestAsmHasNoLegacySSE fails on any instruction of the package's
// assembly (every .s and .h file) that names an X, Y or Z register — 0 to 31 —
// with a mnemonic not starting with V, i.e. a legacy-SSE encoding. One
// such instruction executed while the upper vector state is dirty costs
// a state transition on every call: a single MOVQ AX, X1 in place of
// the prologue's VMOVD took thermal.1rank from 46 to 25 Mpart/s
// (EXPERIMENTS P35). Macro bodies are checked instruction by
// instruction, an instruction whose only vector operands are macro
// parameters included. Every return of the AVX-512 routine must follow
// a VZEROUPPER.
func TestAsmHasNoLegacySSE(t *testing.T) {
	files, err := filepath.Glob("*.[sh]")
	if err != nil {
		t.Fatal(err)
	}
	// x0…x7 are the register parameters of moveBatchAVX2's gather macros.
	vecReg := regexp.MustCompile(`\b[XYZxyz](3[01]|[12][0-9]|[0-9])\b`)
	n := 0
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		prev := ""
		for i, line := range strings.Split(string(src), "\n") {
			line, _, _ = strings.Cut(line, "//")
			if strings.HasPrefix(strings.TrimSpace(line), "#") {
				continue // #define heads, #include
			}
			if ins := strings.TrimSpace(line); ins != "" {
				if ins == "RET" && strings.Contains(file, "avx512") && prev != "VZEROUPPER" {
					t.Errorf("%s:%d: RET not preceded by VZEROUPPER", file, i+1)
				}
				prev = ins
			}
			for _, ins := range strings.Split(strings.TrimSuffix(strings.TrimSpace(line), `\`), ";") {
				f := strings.Fields(ins)
				if len(f) == 0 || strings.HasSuffix(f[0], ":") || strings.Contains(f[0], "(") || !vecReg.MatchString(ins) {
					continue // blank, label, macro use, or no vector register
				}
				n++
				if !strings.HasPrefix(f[0], "V") {
					t.Errorf("%s:%d: %q is not VEX or EVEX encoded", file, i+1, strings.TrimSpace(ins))
				}
			}
		}
	}
	// advanceBlockAVX2, moveBatchAVX2, advanceBlock32AVX512 and
	// moveBatch16AVX512 hold 992.
	if n < 970 {
		t.Fatalf("only %d vector instructions found in %v; the scan is not reading the routines", n, files)
	}
}

// FuzzAsmGoParity drives randomized small populations (size, seed,
// thermal spread and order all fuzzed) through one serial step of the go
// kernel, each assembly shape (asmShapes: both widths on an AVX-512
// host) and the per-particle oracle and requires bitwise-identical
// state. order 0 keeps the loaded (random) order, nearly all one-lane
// runs; 1 sorts by voxel, nearly all single-voxel blocks; 2 is "hot":
// the loaded order at uth 0.5 whatever the fuzzed spread,
// thermal.hot-unsorted's temperature, so about one mover in seven
// crosses two faces; k ≥ 3 is "decayed": sorted, then advanced 1 + (k−3)
// mod 20 steps by the oracle before the compared step, the mixed-voxel
// blocks a production buffer holds between sorts. `go test` runs the
// seed corpus; `go test -fuzz=AsmGoParity ./internal/push` explores.
func FuzzAsmGoParity(f *testing.F) {
	f.Add(uint16(0), uint64(1), float64(0.3), uint8(1))
	f.Add(uint16(1), uint64(2), float64(0.1), uint8(0))
	f.Add(uint16(17), uint64(3), float64(1.5), uint8(1))
	f.Add(uint16(333), uint64(4), float64(0.7), uint8(0))
	f.Add(uint16(2048), uint64(5), float64(2.0), uint8(1))
	f.Add(uint16(2048), uint64(6), float64(0.2), uint8(12))
	f.Add(uint16(700), uint64(7), float64(1.0), uint8(22))
	f.Add(uint16(4095), uint64(8), float64(0), uint8(2))
	f.Add(uint16(9), uint64(9), float64(0), uint8(2))
	f.Fuzz(func(t *testing.T, n uint16, seed uint64, uth float64, order uint8) {
		if math.IsNaN(uth) || math.IsInf(uth, 0) {
			uth = 0.5
		}
		uth = math.Mod(math.Abs(uth), 4)
		decay := 0
		switch {
		case order == 2:
			uth = 0.5
		case order >= 3:
			decay = 1 + int(order-3)%20
		}
		mk := func() (*rig, *Kernel) {
			r := newRig(6, 5, 4, 0.5)
			r.smoothFields(0.3)
			r.loadRandom(int(n%4096), uth, seed)
			if order == 1 || order >= 3 {
				sortByVoxel(r.buf)
			}
			k := r.kernel(-1, 1, 0.24)
			for s := 0; s < decay; s++ {
				r.acc.Clear()
				k.AdvancePUnfused(r.buf)
			}
			k.ResetStats()
			r.acc.Clear()
			return r, k
		}
		label := fmt.Sprintf("n=%d seed=%d uth=%g order=%d", n, seed, uth, order)
		ro, ko := mk()
		ko.AdvancePUnfused(ro.buf)
		rg, kg := mk()
		kg.AdvanceP(rg.buf)
		checkSameState(t, label+" go vs oracle", rg, kg, ro, ko, false)
		for _, sh := range asmShapes() {
			ra, ka := mk()
			useShape(ka, sh)
			ka.AdvanceP(ra.buf)
			checkSameState(t, label+" "+sh+" vs go", ra, ka, rg, kg, true)
		}
	})
}
