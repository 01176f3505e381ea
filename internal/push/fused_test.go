package push

import (
	"fmt"
	stdsort "sort"
	"testing"

	"govpic/internal/particle"
	"govpic/internal/rng"
)

// fusedPair builds two identical rigs + kernels over the same field
// pattern and particle population, so one can run the sweep and the
// other the per-particle oracle.
func fusedPair(t testing.TB, n int, seed uint64, sorted bool) (*rig, *Kernel, *rig, *Kernel) {
	mk := func() (*rig, *Kernel) {
		r := newRig(8, 6, 4, 0.5)
		r.smoothFields(0.4)
		k := r.kernel(-1, 1, 0.15)
		return r, k
	}
	ra, ka := mk()
	rb, kb := mk()

	ra.loadRandom(n, 0.3, seed)
	if sorted {
		sortByVoxel(ra.buf)
	} else {
		// Deliberately adversarial order: shuffle, then duplicate a few
		// voxels far apart so the same cell appears in many short runs.
		src := rng.New(seed^0x9e37, 1)
		for i := ra.buf.N() - 1; i > 0; i-- {
			j := src.Intn(i + 1)
			pi, pj := ra.buf.At(i), ra.buf.At(j)
			ra.buf.Set(i, pj)
			ra.buf.Set(j, pi)
		}
	}
	rb.buf.CopyFrom(ra.buf)
	return ra, ka, rb, kb
}

// sortByVoxel stably sorts the buffer by voxel via the standard
// library — test fixtures only; avoids importing this repo's sort
// package (which is itself under test elsewhere).
func sortByVoxel(b *particle.Buffer) {
	p := b.All()
	stdsort.SliceStable(p, func(i, j int) bool { return p[i].Voxel < p[j].Voxel })
	for i := range p {
		b.Set(i, p[i])
	}
}

// checkFusedIdentical runs several steps of the sweep vs the oracle on
// the pair and requires bitwise-equal particles, accumulators, outgoing
// buffers and counters after every step.
func checkFusedIdentical(t *testing.T, ra *rig, ka *Kernel, rb *rig, kb *Kernel, steps int) {
	t.Helper()
	for s := 0; s < steps; s++ {
		ra.acc.Clear()
		rb.acc.Clear()
		ka.AdvanceP(ra.buf)
		kb.AdvancePUnfused(rb.buf)
		checkSameState(t, fmt.Sprintf("step %d", s), ra, ka, rb, kb, false)
	}
}

// forEachShape runs f as one subtest per minimum span width × sweep
// shape, handing it a fresh sweep/oracle pair regrouped by groupSpans,
// with the shape applied to the sweep's kernel.
func forEachShape(t *testing.T, n int, seed uint64, sorted bool, f func(t *testing.T, ra *rig, ka *Kernel, rb *rig, kb *Kernel)) {
	for _, m := range minSpans {
		for _, sh := range sweepShapes() {
			t.Run(fmt.Sprintf("n=%d/sorted=%v/spanMin=%d/%v", n, sorted, m, sh), func(t *testing.T) {
				ra, ka, rb, kb := fusedPair(t, n, seed, sorted)
				groupSpans(ra.buf, m)
				groupSpans(rb.buf, m)
				useShape(ka, sh)
				f(t, ra, ka, rb, kb)
			})
		}
	}
}

func TestFusedMatchesUnfusedSorted(t *testing.T) {
	forEachShape(t, 4000, 7, true, func(t *testing.T, ra *rig, ka *Kernel, rb *rig, kb *Kernel) {
		checkFusedIdentical(t, ra, ka, rb, kb, 1)
		// Freshly sorted, runs average ~ppc particles: far fewer runs than
		// pushes (later steps decay as particles drift, hence 1 step here).
		if ka.NRuns >= ka.NPushed/4 {
			t.Fatalf("sorted sweep found only short runs: %d runs for %d pushes", ka.NRuns, ka.NPushed)
		}
		checkFusedIdentical(t, ra, ka, rb, kb, 4)
	})
}

func TestFusedMatchesUnfusedUnsorted(t *testing.T) {
	// The adversarial case for fusion: the same voxel split across many
	// runs, so flush-time accumulator sums interleave with earlier runs'
	// deposits. The load-modify-store design must keep this bitwise.
	forEachShape(t, 4000, 11, false, func(t *testing.T, ra *rig, ka *Kernel, rb *rig, kb *Kernel) {
		checkFusedIdentical(t, ra, ka, rb, kb, 5)
	})
}

func TestFusedMatchesUnfusedProperty(t *testing.T) {
	// Many small randomized populations, sorted and shuffled, including
	// sizes 0 and 1 (empty sweep, single-run sweep).
	for _, n := range []int{0, 1, 2, 17, 333} {
		for _, sorted := range []bool{true, false} {
			forEachShape(t, n, uint64(n)*31+5, sorted, func(t *testing.T, ra *rig, ka *Kernel, rb *rig, kb *Kernel) {
				checkFusedIdentical(t, ra, ka, rb, kb, 3)
			})
		}
	}
}

// TestAdvanceZeroAllocSteadyState: once Prealloc has sized the outgoing
// buffers and a warm-up has grown the mover list, a serial AdvanceP
// step allocates nothing — with every block routine.
func TestAdvanceZeroAllocSteadyState(t *testing.T) {
	for _, sh := range sweepShapes() {
		r := newRig(8, 6, 4, 0.5)
		r.smoothFields(0.4)
		k := r.kernel(-1, 1, 0.15)
		useShape(k, sh)
		r.loadRandom(5000, 0.3, 3)
		sortByVoxel(r.buf)
		k.Prealloc(64)
		// Warm up: grows anything Prealloc under-sized.
		for s := 0; s < 3; s++ {
			r.acc.Clear()
			k.AdvanceP(r.buf)
		}
		allocs := testing.AllocsPerRun(10, func() {
			r.acc.Clear()
			k.AdvanceP(r.buf)
		})
		if allocs != 0 {
			t.Fatalf("%s: steady-state AdvanceP allocates %.1f objects/step, want 0", sh, allocs)
		}
	}
}

// benchSortedRig builds the benchmark population: n particles on a
// production-ish grid, advanced one warm-up step (which also sizes the
// mover and outgoing buffers) from one of four orders — "sorted" (runs
// average ~ppc particles, blocks mostly one voxel), "unsorted" (one run
// per particle), "decayed": sorted, then advanced 10 steps in all,
// half the thermal decks' sort interval, so most blocks hold several
// voxels, as in a production buffer between sorts — or "hot": unsorted
// at thermal spread 0.5 and the thermal decks' time step (0.7 of the
// Courant limit), thermal.hot-unsorted's population, so about a third
// of the particles cross a face every step and the mover finish shows.
func benchSortedRig(n int, order string) (*rig, *Kernel) {
	r := newRig(16, 8, 8, 0.5)
	r.smoothFields(0.3)
	uth, dt := 0.2, 0.1
	if order == "hot" {
		uth, dt = 0.5, 0.2
	}
	k := r.kernel(-1, 1, dt)
	r.loadRandom(n, uth, 17)
	if order == "sorted" || order == "decayed" {
		sortByVoxel(r.buf)
	}
	k.Prealloc(64)
	steps := 1
	if order == "decayed" {
		steps = 10
	}
	for s := 0; s < steps; s++ {
		r.acc.Clear()
		k.AdvanceP(r.buf)
	}
	return r, k
}

// BenchmarkPushSortedRuns measures the sweep with each block routine —
// asm at its widest, asm8 the 8-lane routine where asm is wider, go —
// against the per-particle oracle on a sorted, a decayed, an unsorted
// and a hot buffer (see benchSortedRig). The asm/go vs oracle gap is
// what run fusion, the block routines and the batched mover finish buy.
// Allocations must be 0. MB/s is the modelled traffic
// (Kernel.TrafficBytes) per second; movers/kpart the face-crossers.
func BenchmarkPushSortedRuns(b *testing.B) {
	const n = 100000
	for _, order := range []string{"sorted", "decayed", "unsorted", "hot"} {
		for _, kernel := range []string{KernelAsm, shapeAsm8, KernelGo, "oracle"} {
			b.Run(kernel+"/"+order, func(b *testing.B) {
				if kernel == KernelAsm && !AsmAvailable() {
					b.Skip("assembly kernel unavailable on this build/CPU")
				}
				if kernel == shapeAsm8 && AsmLanes() <= particle.Lanes {
					b.Skip("asm is the 8-lane routine on this build/CPU")
				}
				r, k := benchSortedRig(n, order)
				if kernel != "oracle" {
					useShape(k, kernel)
				}
				// Advancing decays the voxel order, so every iteration restores
				// the pristine buffer (outside the timer): each measured sweep
				// sees the exact same run-length distribution.
				pristine := particle.NewBuffer(0)
				pristine.CopyFrom(r.buf)
				k.ResetStats() // drop warm-up counts so rates cover timed sweeps only
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					r.buf.CopyFrom(pristine)
					r.acc.ClearFull()
					b.StartTimer()
					if kernel == "oracle" {
						k.AdvancePUnfused(r.buf)
					} else {
						k.AdvanceP(r.buf)
					}
				}
				b.StopTimer()
				b.SetBytes(k.TrafficBytes() / int64(b.N))
				px := float64(k.NPushed) / b.Elapsed().Seconds()
				b.ReportMetric(px/1e6, "Mpart/s")
				b.ReportMetric(float64(k.TrafficBytes())/float64(k.NPushed), "B/part")
				b.ReportMetric(1000*float64(k.NMoved)/float64(k.NPushed), "movers/kpart")
			})
		}
	}
}
