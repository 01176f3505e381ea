package push

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"govpic/internal/accum"
	"govpic/internal/particle"
	"govpic/internal/pipe"
)

// blockFixture allocates the per-block accumulators and states the
// pipelined path needs.
func blockFixture(r *rig) (accs []*accum.Array, blocks []*BlockState) {
	accs = make([]*accum.Array, pipe.NumBlocks)
	blocks = make([]*BlockState, pipe.NumBlocks)
	for b := range accs {
		accs[b] = accum.New(r.g)
		blocks[b] = new(BlockState)
	}
	return
}

// runBlockedStep is the pipelined push of one step: concurrent block
// advance into private accumulators, serial mover completion, reduction
// into the kernel accumulator.
func runBlockedStep(k *Kernel, r *rig, p *pipe.Pool, accs []*accum.Array, blocks []*BlockState) {
	accum.ClearAll(p, accs)
	n := r.buf.N()
	p.Run(pipe.NumBlocks, func(b int) {
		bs := blocks[b]
		bs.Reset()
		lo, hi := pipe.BlockBounds(n, pipe.NumBlocks, b)
		k.AdvanceBlock(r.buf, lo, hi, accs[b], bs)
	})
	k.FinishBlocks(r.buf, blocks, accs)
	accum.Reduce(p, k.Acc, accs)
}

// TestBlockedPushMatchesSerial drives the same hot plasma through the
// serial AdvanceP and the block-pipelined path for several worker
// counts: particle state must match bitwise (the block decomposition
// performs the identical arithmetic in the identical order), statistics
// counters must match exactly, and the reduced current must match the
// serial deposition to float32 rounding (association across block
// boundaries differs).
func TestBlockedPushMatchesSerial(t *testing.T) {
	mk := func() (*rig, *Kernel) {
		r := newRig(6, 5, 4, 0.5)
		r.smoothFields(0.3)
		r.loadRandom(4000, 0.5, 99) // hot: plenty of face crossings
		k := r.kernel(-1, 1, 0.24)
		k.Bound[0] = Absorb // exercise the loss path too
		return r, k
	}
	for _, w := range []int{1, 2, 4, 8} {
		rs, ks := mk()
		rb, kb := mk()
		pool := pipe.New(w)
		accs, blocks := blockFixture(rb)

		for s := 0; s < 5; s++ {
			rs.acc.Clear()
			ks.AdvanceP(rs.buf)
			runBlockedStep(kb, rb, pool, accs, blocks)
		}

		checkBlockedMatchesSerial(t, fmt.Sprintf("W=%d", w), rs, ks, rb, kb)
	}
}

// checkBlockedMatchesSerial compares a block-pipelined run (rb, kb)
// with a serial run (rs, ks) of the same population: particle state
// must match bitwise, the integer counters and the reduced accumulator
// window (the union of the blocks' windows) exactly; ELost is a
// float64 sum whose association differs between the serial chain and
// the per-block partial sums, and the reduced currents associate
// differently across block boundaries, so those match to rounding.
func checkBlockedMatchesSerial(t *testing.T, label string, rs *rig, ks *Kernel, rb *rig, kb *Kernel) {
	t.Helper()
	if rs.buf.N() != rb.buf.N() {
		t.Fatalf("%s: particle counts diverged: %d vs %d", label, rs.buf.N(), rb.buf.N())
	}
	checkSameWindow(t, label, rs, rb)
	for i := 0; i < rs.buf.N(); i++ {
		if !bitEqParticle(rs.buf.At(i), rb.buf.At(i)) {
			t.Fatalf("%s: particle %d differs:\nserial  %+v\nblocked %+v",
				label, i, rs.buf.At(i), rb.buf.At(i))
		}
	}
	if ks.NPushed != kb.NPushed || ks.NMoved != kb.NMoved ||
		ks.NSeg != kb.NSeg || ks.NLost != kb.NLost ||
		math.Abs(ks.ELost-kb.ELost) > 1e-12*math.Abs(ks.ELost) {
		t.Fatalf("%s: counters diverged: serial {%d %d %d %d %g} blocked {%d %d %d %d %g}",
			label, ks.NPushed, ks.NMoved, ks.NSeg, ks.NLost, ks.ELost,
			kb.NPushed, kb.NMoved, kb.NSeg, kb.NLost, kb.ELost)
	}
	var maxDiff, scale float64
	for v := range rs.acc.A {
		a, b := &rs.acc.A[v], &rb.acc.A[v]
		for j := 0; j < 4; j++ {
			for _, pair := range [][2]float32{{a.JX[j], b.JX[j]}, {a.JY[j], b.JY[j]}, {a.JZ[j], b.JZ[j]}} {
				if d := math.Abs(float64(pair[0] - pair[1])); d > maxDiff {
					maxDiff = d
				}
				if s := math.Abs(float64(pair[0])); s > scale {
					scale = s
				}
			}
		}
	}
	if maxDiff > 1e-5*(scale+1) {
		t.Fatalf("%s: reduced current differs from serial by %g (scale %g)", label, maxDiff, scale)
	}
}

// benchRig builds a push-heavy fixture shared by the serial/blocked
// benchmarks: a voxel-sorted population, as in production (species
// re-sort every few steps).
func benchRig() (*rig, *Kernel) {
	r := newRig(16, 8, 8, 0.5)
	r.smoothFields(0.1)
	r.loadRandom(100000, 0.1, 42)
	sortByVoxel(r.buf)
	return r, r.kernel(-1, 1, 0.1)
}

// BenchmarkAdvanceSerial is the pre-pipeline baseline: the plain
// AdvanceP sweep with a single shared accumulator.
func BenchmarkAdvanceSerial(b *testing.B) {
	r, k := benchRig()
	k.Prealloc(64)
	r.acc.Clear()
	k.AdvanceP(r.buf) // warm-up: grow any remaining scratch
	b.ReportAllocs()  // steady state must be 0 allocs/op
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.acc.Clear()
		k.AdvanceP(r.buf)
	}
	b.ReportMetric(float64(r.buf.N())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpart/s")
}

// BenchmarkAdvanceBlocked measures the pipelined path (block advance +
// serial finish + reduction) for each worker count and both span
// routines; the asm-vs-go gap at fixed W is what the AVX2 routine
// buys, and W1 vs the serial benchmark above isolates the overhead of
// the block machinery itself. Every iteration restores the
// pristine sorted buffer (outside the timer) so each measured step sees
// the identical run-length distribution.
func BenchmarkAdvanceBlocked(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		for _, kernel := range []string{KernelAsm, KernelGo} {
			b.Run(fmt.Sprintf("W%d/%s", w, kernel), func(b *testing.B) {
				if kernel == KernelAsm && !AsmAvailable() {
					b.Skip("assembly kernel unavailable on this build/CPU")
				}
				r, k := benchRig()
				k.Asm = kernel == KernelAsm
				k.Prealloc(64)
				pool := pipe.New(w)
				accs, blocks := blockFixture(r)
				runBlockedStep(k, r, pool, accs, blocks) // warm-up
				pristine := particle.NewBuffer(0)
				pristine.CopyFrom(r.buf)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					r.buf.CopyFrom(pristine)
					b.StartTimer()
					runBlockedStep(k, r, pool, accs, blocks)
				}
				b.ReportMetric(float64(pristine.N())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpart/s")
			})
		}
	}
}

// TestAdvanceBlockFinishesFastTop holds the pool task's share of the
// mover finish to its extent, on every shape: AdvanceBlock finishes its
// movers from the top down — through the batch routine or moveP — and
// stops at the first that does not stay local, and FinishBlocks
// finishes the rest, ending in the oracle's state bit for bit. The
// populations are eleven movers (a full batch and three) in one cell,
// all two-segment crossers or with one other mover k-th from the top:
// an absorbed wall crosser, where the task stops, or a third-face
// corner (four segments), which the batch leaves to moveP and the task
// finishes; and ranges of no particle and of one lane.
func TestAdvanceBlockFinishesFastTop(t *testing.T) {
	g := moverGrid()
	const m = 11
	absorbed := crosser(g, edgeCell(g, 0), 0)
	third := corner3(g, moverCell)
	// population makes mover j cross face j%6 of moverCell — two
	// segments — but gives the mover k-th from the top the slow
	// particle (k = 0: none).
	population := func(k int, slow particle.Particle) moverCase {
		c := moverCase{bound: func(k *Kernel) { k.Bound[0] = Absorb }}
		for j := range m {
			p := crosser(g, moverCell, j%6)
			if j == m-k {
				p = slow
			}
			c.ps = append(c.ps, p)
		}
		return c
	}
	type tc struct {
		name       string
		c          moverCase
		lo, hi     int
		movers, in int   // movers recorded, and finished by the task
		nseg       int64 // segments the task deposited
	}
	none := population(0, particle.Particle{})
	cases := []tc{{name: "fast", c: none, hi: m, movers: m, in: m, nseg: 2 * m}}
	for _, k := range []int{1, 2, 8, 9, m} {
		cases = append(cases,
			tc{name: fmt.Sprintf("absorb/k=%d", k), c: population(k, absorbed), hi: m, movers: m, in: k - 1, nseg: int64(2 * (k - 1))},
			tc{name: fmt.Sprintf("third/k=%d", k), c: population(k, third), hi: m, movers: m, in: m, nseg: 2*m + 2})
	}
	cases = append(cases,
		tc{name: "empty", c: none, lo: 3, hi: 3},
		tc{name: "lane/fast", c: none, lo: 5, hi: 6, movers: 1, in: 1, nseg: 2},
		tc{name: "lane/absorb", c: population(6, absorbed), lo: 5, hi: 6, movers: 1},
		tc{name: "lane/third", c: population(6, third), lo: 5, hi: 6, movers: 1, in: 1, nseg: 4})
	for _, c := range cases {
		for _, sh := range sweepShapes() {
			label := fmt.Sprintf("%s %s", c.name, sh)
			r, k := moverRig(c.c)
			useShape(k, sh)
			bs := new(BlockState)
			k.AdvanceBlock(r.buf, c.lo, c.hi, k.Acc, bs)
			if len(bs.Movers) != c.movers || bs.done != c.in || bs.NSeg != c.nseg {
				t.Fatalf("%s: task finished %d of %d movers, %d segments; want %d of %d, %d",
					label, bs.done, len(bs.Movers), bs.NSeg, c.in, c.movers, c.nseg)
			}
			k.FinishBlocks(r.buf, []*BlockState{bs}, []*accum.Array{k.Acc})
			if bs.done != c.movers {
				t.Fatalf("%s: %d of %d movers finished", label, bs.done, c.movers)
			}
			ro, ko := moverRig(c.c)
			stepRange(ko, ro, oracleStep, c.lo, c.hi, nil)
			checkSameState(t, label, r, k, ro, ko, false)
		}
	}
}

// TestLocalMovers pins which movers a pool task may finish with moveP
// (Kernel.local): by hand, that each rule — half a cell per axis, the
// face toward each component's sign, Wrap — is neither looser nor
// stricter than stated; and over random movers under random face
// actions, that moveP keeps every mover local admits in the buffer,
// appends nothing to Out and walks at most four segments.
func TestLocalMovers(t *testing.T) {
	g := moverGrid()
	_, k := moverRig(moverCase{})
	k.Bound = [6]Action{Absorb, Wrap, Migrate, Reflect, Absorb, Absorb}
	wrap := k.batchConsts().wrap
	nan := float32(math.NaN())
	for _, c := range []struct {
		name string
		cell [3]int
		d    [3]float32
		want bool
	}{
		{"interior", moverCell, [3]float32{0.9, -0.6, 0.4}, true},
		{"half cell", moverCell, [3]float32{1, -1, 1}, true},
		{"past half cell", moverCell, [3]float32{-1.01, 0, 0}, false},
		{"NaN", moverCell, [3]float32{0.1, nan, 0.1}, false},
		{"toward absorb", [3]int{1, 3, 2}, [3]float32{-0.1, 0.2, 0.2}, false},
		{"away from absorb", [3]int{1, 3, 2}, [3]float32{0.1, 0.2, 0.2}, true},
		{"along absorb", [3]int{1, 3, 2}, [3]float32{0, 0.2, 0.2}, true},
		{"toward wrap", [3]int{g.NX, 3, 2}, [3]float32{0.5, -0.2, 0.2}, true},
		{"toward migrate", [3]int{3, 1, 2}, [3]float32{0.2, -0.5, 0.2}, false},
		{"toward reflect", [3]int{3, g.NY, 2}, [3]float32{0.2, 0.5, 0.2}, false},
		{"wrap then absorb", [3]int{g.NX, 3, 1}, [3]float32{0.5, 0.2, -0.2}, false},
	} {
		r, _ := moverRig(moverCase{ps: []particle.Particle{{Voxel: int32(g.Voxel(c.cell[0], c.cell[1], c.cell[2])), W: 1}}})
		mv := particle.Mover{DispX: c.d[0], DispY: c.d[1], DispZ: c.d[2]}
		if got := k.local(r.buf, &mv, wrap); got != c.want {
			t.Errorf("%s: local = %v, want %v", c.name, got, c.want)
		}
	}

	rnd := rand.New(rand.NewPCG(5, 8))
	admitted := 0
	for range 4000 {
		_, k := moverRig(moverCase{})
		for f := range k.Bound {
			k.Bound[f] = []Action{Wrap, Reflect, Absorb, Migrate}[rnd.IntN(4)]
		}
		off := func() float32 { return 2*rnd.Float32() - 1 }
		disp := func() float32 { return 2.4*rnd.Float32() - 1.2 }
		p := particle.Particle{
			Dx: off(), Dy: off(), Dz: off(),
			Voxel: int32(g.Voxel(1+rnd.IntN(g.NX), 1+rnd.IntN(g.NY), 1+rnd.IntN(g.NZ))), W: 1,
		}
		r, _ := moverRig(moverCase{ps: []particle.Particle{p}})
		mv := particle.Mover{DispX: disp(), DispY: disp(), DispZ: disp()}
		if !k.local(r.buf, &mv, k.batchConsts().wrap) {
			continue
		}
		admitted++
		var bs BlockState
		k.moveP(r.buf, 0, mv.DispX, mv.DispY, mv.DispZ, k.Acc, &bs)
		out := 0
		for f := range k.Out {
			out += len(k.Out[f])
		}
		if r.buf.N() != 1 || out != 0 || bs.NLost != 0 || bs.NSeg > 4 {
			t.Fatalf("local mover %+v %+v under %v: %d left, %d out, %d lost, %d segments",
				p, mv, k.Bound, r.buf.N(), out, bs.NLost, bs.NSeg)
		}
	}
	if admitted < 500 {
		t.Fatalf("only %d of 4000 random movers were local", admitted)
	}
}

// TestBlockCountersSumToSerial verifies the per-block statistics of one
// pipelined step add up to exactly the serial kernel's counters — the
// invariant that makes the pipelined flop accounting trustworthy — when
// the pool tasks finish part of the movers and FinishBlocks the rest,
// on every shape: the batch routine's tally and moveP's count.
func TestBlockCountersSumToSerial(t *testing.T) {
	mk := func() (*rig, *Kernel) {
		r := newRig(6, 5, 4, 0.5)
		r.smoothFields(0.3)
		r.loadRandom(3000, 0.5, 17)
		k := r.kernel(-1, 1, 0.24)
		k.Bound[4] = Absorb // ZLo: some particles are lost
		return r, k
	}
	for _, sh := range sweepShapes() {
		t.Run(sh, func(t *testing.T) {
			rs, ks := mk()
			rb, kb := mk()
			useShape(kb, sh)
			rs.acc.Clear()
			ks.AdvanceP(rs.buf)
			accs, blocks := blockFixture(rb)
			pool := pipe.New(4)
			pool.Run(pipe.NumBlocks, func(b int) {
				blocks[b].Reset()
				lo, hi := pipe.BlockBounds(rb.buf.N(), pipe.NumBlocks, b)
				kb.AdvanceBlock(rb.buf, lo, hi, accs[b], blocks[b])
			})
			// Each half of the finish counts its own segments (the task's batch
			// tally, then FinishBlocks' batches and moveP), and only the serial
			// half counts the block's movers; the sums below test both halves
			// only if neither is empty.
			inTask, movers := 0, 0
			for _, bs := range blocks {
				inTask += bs.done
				movers += len(bs.Movers)
			}
			if inTask == 0 || inTask == movers {
				t.Fatalf("tasks finished %d of %d movers; both halves of the finish not exercised", inTask, movers)
			}
			kb.FinishBlocks(rb.buf, blocks, accs)

			var sum BlockState
			used := 0
			for _, bs := range blocks {
				sum.NPushed += bs.NPushed
				sum.NMoved += bs.NMoved
				sum.NSeg += bs.NSeg
				sum.NLost += bs.NLost
				sum.ELost += bs.ELost
				if bs.NPushed > 0 {
					used++
				}
			}
			if used < 2 {
				t.Fatalf("only %d blocks pushed particles; partition not exercised", used)
			}
			if sum.NPushed != ks.NPushed || sum.NMoved != ks.NMoved || sum.NSeg != ks.NSeg || sum.NLost != ks.NLost {
				t.Fatalf("block sums {%d %d %d %d} != serial {%d %d %d %d}",
					sum.NPushed, sum.NMoved, sum.NSeg, sum.NLost,
					ks.NPushed, ks.NMoved, ks.NSeg, ks.NLost)
			}
			if ks.NLost == 0 {
				t.Fatal("test did not exercise the absorb path")
			}
			// The kernel totals are the merged block stats.
			if kb.NPushed != sum.NPushed || kb.NSeg != sum.NSeg || kb.NLost != sum.NLost || kb.NMoved != sum.NMoved {
				t.Fatalf("kernel totals disagree with block sums")
			}
			if math.Abs(sum.ELost-ks.ELost) > 1e-12*math.Abs(ks.ELost) {
				t.Fatalf("ELost: block sum %g vs serial %g", sum.ELost, ks.ELost)
			}
		})
	}
}

// TestAllLanesCross pushes one 32-lane call's worth of particles that
// all leave their cells through every shape: each must record all 32 as
// movers, bit for bit the Go routine's, and must not take the full set
// of crosser bits for the assembly's bad-voxel report.
func TestAllLanesCross(t *testing.T) {
	const n = 4 * particle.Lanes
	mk := func() (*rig, *Kernel) {
		r := newRig(6, 5, 4, 0.5)
		r.smoothFields(0.3)
		r.loadRandom(n, 0.1, 43)
		for i := 0; i < n; i++ {
			p := r.buf.At(i)
			p.Dx, p.Ux = 0.999, 10
			r.buf.Set(i, p)
		}
		return r, r.kernel(-1, 1, 0.24)
	}
	rg, kg := mk()
	var bsG BlockState
	kg.advanceRange(rg.buf, 0, n, rg.acc, &bsG)
	for _, sh := range sweepShapes() {
		r, k := mk()
		useShape(k, sh)
		var bs BlockState
		if msg := blockPanic(func() { k.advanceRange(r.buf, 0, n, r.acc, &bs) }); msg != "" {
			t.Fatalf("%s: panicked: %s", sh, msg)
		}
		if len(bs.Movers) != n {
			t.Fatalf("%s: %d movers, want %d", sh, len(bs.Movers), n)
		}
		checkSameSweep(t, sh, r, &bs, rg, &bsG)
	}
}

// BenchmarkBlockChain is the block routines' roofline in one line per
// width: ns/particle of one call's blocks pushed over and over — each
// call waits for the previous one's stores, a fully serial chain — and
// of 64 independent blocks swept in one range. Equal rates mean
// out-of-order execution overlaps nothing across calls: the routine is
// latency-bound with one call in flight, and only more independent
// lanes per call go faster — 16 in one ZMM chain at lanes=16, two
// chains side by side at lanes=32 (lanes=16 runs the 32-lane routine
// with its second chain masked off). Crossers are recorded and dropped,
// never finished.
func BenchmarkBlockChain(b *testing.B) {
	const blocks = 64
	for _, lanes := range []int{particle.Lanes, 2 * particle.Lanes, 4 * particle.Lanes} {
		for _, mode := range []string{"chain", "independent"} {
			b.Run(fmt.Sprintf("lanes=%d/%s", lanes, mode), func(b *testing.B) {
				if !AsmAvailable() || AsmLanes() < lanes {
					b.Skipf("no %d-lane assembly routine on this build/CPU", lanes)
				}
				r := newRig(16, 8, 8, 0.5)
				r.smoothFields(0.3)
				r.loadRandom(blocks*particle.Lanes, 0.05, 29)
				sortByVoxel(r.buf)
				k := r.kernel(-1, 1, 0.05)
				k.Asm, k.asmLanes = true, lanes
				n := lanes
				if mode == "independent" {
					n = r.buf.N()
				}
				bs := &BlockState{Movers: make([]particle.Mover, 0, r.buf.N())}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bs.Reset()
					k.advanceRange(r.buf, 0, n, r.acc, bs)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/particle")
			})
		}
	}
}
