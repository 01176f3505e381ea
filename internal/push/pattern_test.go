package push

import (
	"fmt"
	"math"
	"runtime/debug"
	"strings"
	"testing"

	"govpic/internal/accum"
	"govpic/internal/particle"
	"govpic/internal/pipe"
)

// voxelPattern is one composition of the pattern block — block 1 of a
// two-block buffer — as indices into patternPalette, lane by lane.
type voxelPattern struct {
	name string
	vox  [particle.Lanes]int
	// fromPrev starts the pushed range in block 0, whose lanes all sit
	// in palette voxel 0, so the pattern's lane 0 continues that run.
	fromPrev bool
	// nan gives lane 2 a NaN offset, lane 5 a NaN momentum, and lanes 6
	// and 7, at rest mid-cell, NaN weights of different payloads: their
	// run's slots add NaN to NaN, and the payload the sum keeps is the
	// one the add's operand order picks (see raceBuild).
	nan bool
}

func voxelPatterns() []voxelPattern {
	ps := []voxelPattern{{name: "one"}}
	for k := 1; k < particle.Lanes; k++ {
		p := voxelPattern{name: fmt.Sprintf("split=%d", k)}
		for l := k; l < particle.Lanes; l++ {
			p.vox[l] = 1
		}
		ps = append(ps, p)
	}
	alt := voxelPattern{name: "alternating"}
	distinct := voxelPattern{name: "distinct"}
	for l := 0; l < particle.Lanes; l++ {
		alt.vox[l] = l % 2
		distinct.vox[l] = l
	}
	return append(ps, alt, distinct,
		voxelPattern{name: "continues", vox: [particle.Lanes]int{0, 0, 0, 1, 1, 1, 1, 1}, fromPrev: true},
		voxelPattern{name: "nan", vox: [particle.Lanes]int{0, 0, 0, 0, 1, 1, 1, 1}, nan: true})
}

// patternPalette is eight distinct voxels; voxel 0 touches the XHi
// (Migrate), YLo (Absorb) and ZLo (Wrap) faces of patternRig's kernel.
func patternPalette(r *rig) [particle.Lanes]int32 {
	var pal [particle.Lanes]int32
	for l := range pal {
		pal[l] = int32(r.g.Voxel(6-l%6, 1+l%5, 1+l%4))
	}
	return pal
}

// patternRig builds the two-block buffer of pattern p: random offsets and
// hot momenta (plenty of crossers), block 0 in palette voxel 0, block 1
// laid out as p.
func patternRig(p voxelPattern, seed uint64) (*rig, *Kernel) {
	r := newRig(6, 5, 4, 0.5)
	r.smoothFields(0.3)
	r.loadRandom(2*particle.Lanes, 0.6, seed)
	pal := patternPalette(r)
	b0, b1 := &r.buf.Blk[0], &r.buf.Blk[1]
	for l := 0; l < particle.Lanes; l++ {
		b0.Voxel[l] = pal[0]
		b1.Voxel[l] = pal[p.vox[l]]
	}
	if p.nan {
		b1.Dx[2] = float32(math.NaN())
		b1.Uz[5] = float32(math.NaN())
		for l, payload := range map[int]uint32{6: 0x7fc00001, 7: 0x7fc00002} {
			b1.Dx[l], b1.Dy[l], b1.Dz[l] = 0, 0, 0
			b1.Ux[l], b1.Uy[l], b1.Uz[l] = 0, 0, 0
			b1.W[l] = math.Float32frombits(payload)
		}
	}
	k := r.kernel(-1, 1, 0.24)
	k.Bound[1] = Migrate
	k.Bound[2] = Absorb
	return r, k
}

// rangeStep is a range sweep, the pipeline task that goes with it, and
// the mover finish: advanceRange, AdvanceBlock (which also finishes its
// fast top movers) and FinishBlocks, or the oracle's
// advanceRangeUnfused, twice, and finishOracle.
type rangeStep struct {
	sweep, task func(k *Kernel, buf *particle.Buffer, lo, hi int, a *accum.Array, bs *BlockState)
	finish      func(k *Kernel, buf *particle.Buffer, blocks []*BlockState, accs []*accum.Array)
}

var (
	sweepStep  = rangeStep{(*Kernel).advanceRange, (*Kernel).AdvanceBlock, (*Kernel).FinishBlocks}
	oracleStep = rangeStep{(*Kernel).advanceRangeUnfused, (*Kernel).advanceRangeUnfused, (*Kernel).finishOracle}
)

// pipelinedRanges is how stepRange splits [lo, hi) over the pipeline:
// one range when serial, else pipe.NumBlocks near-equal ones, cut at
// any lane.
func pipelinedRanges(lo, hi int, pipelined bool) [][2]int {
	if !pipelined {
		return [][2]int{{lo, hi}}
	}
	var rs [][2]int
	for b := 0; b < pipe.NumBlocks; b++ {
		blo, bhi := pipe.BlockBounds(hi-lo, pipe.NumBlocks, b)
		rs = append(rs, [2]int{lo + blo, lo + bhi})
	}
	return rs
}

// stepRange pushes particles [lo, hi) one step with st and finishes
// the movers in descending index order. With a nil pool it is
// AdvanceP's sequence restricted to the range (AdvancePUnfused's, for
// oracleStep); otherwise the pipelined one: the ranges of
// pipelinedRanges pushed by st's task on pool into private
// accumulators, then the finish and the reduction into k.Acc.
func stepRange(k *Kernel, r *rig, st rangeStep, lo, hi int, pool *pipe.Pool) {
	if pool == nil {
		bs := new(BlockState)
		st.sweep(k, r.buf, lo, hi, k.Acc, bs)
		st.finish(k, r.buf, []*BlockState{bs}, []*accum.Array{k.Acc})
		return
	}
	accs, blocks := blockFixture(r)
	rs := pipelinedRanges(lo, hi, true)
	pool.Run(pipe.NumBlocks, func(b int) {
		st.task(k, r.buf, rs[b][0], rs[b][1], accs[b], blocks[b])
	})
	st.finish(k, r.buf, blocks, accs)
	accum.Reduce(pool, k.Acc, accs)
}

// wantRuns counts the voxel runs the sweep must report for [lo, hi):
// one per maximal stretch of equal voxels within each swept range.
func wantRuns(buf *particle.Buffer, lo, hi int, pipelined bool) int64 {
	var n int64
	for _, rg := range pipelinedRanges(lo, hi, pipelined) {
		for i := rg[0]; i < rg[1]; i++ {
			if i == rg[0] || buf.At(i).Voxel != buf.At(i-1).Voxel {
				n++
			}
		}
	}
	return n
}

// TestBlockVoxelPatterns holds the block driver to the oracle on every
// lane range [l0, l1) of one block (all 36) for each block composition
// the driver must handle: one voxel, a split at every lane, A/B
// alternating (the run flushes mid-block and chains a slot through
// memory), eight distinct voxels, lane 0 continuing the previous
// block's run (the pushed range is then [l0, Lanes+l1), starting in
// block 0), and NaN lanes. Each case runs on {go, asm} × {serial,
// W ∈ {1, 3}}; the oracle runs the same range in the same pipeline
// decomposition. Particles, accumulators and Out order match bitwise,
// the integer counters and the accumulator window exactly, and NRuns
// equals the runs the pattern holds.
func TestBlockVoxelPatterns(t *testing.T) {
	paths := []struct {
		name string
		pool *pipe.Pool
	}{{"serial", nil}, {"W=1", pipe.New(1)}, {"W=3", pipe.New(3)}}
	var moved, lost, out int64
	for _, p := range voxelPatterns() {
		t.Run(p.name, func(t *testing.T) {
			for l0 := 0; l0 < particle.Lanes; l0++ {
				for l1 := l0 + 1; l1 <= particle.Lanes; l1++ {
					lo, hi := particle.Lanes+l0, particle.Lanes+l1
					if p.fromPrev {
						lo = l0
					}
					seed := uint64(100*l0 + l1)
					for _, sh := range sweepShapes() {
						for _, path := range paths {
							label := fmt.Sprintf("[%d,%d) %s %s", l0, l1, sh, path.name)
							rs, ks := patternRig(p, seed)
							ro, ko := patternRig(p, seed)
							useShape(ks, sh)
							runs := wantRuns(rs.buf, lo, hi, path.pool != nil)
							stepRange(ks, rs, sweepStep, lo, hi, path.pool)
							stepRange(ko, ro, oracleStep, lo, hi, path.pool)
							checkSameState(t, label, rs, ks, ro, ko, false)
							if ks.NRuns != runs {
								t.Fatalf("%s: %d runs, want %d", label, ks.NRuns, runs)
							}
							moved += ks.NMoved
							lost += ks.NLost
							for f := range ks.Out {
								out += int64(len(ks.Out[f]))
							}
						}
					}
				}
			}
		})
	}
	if moved == 0 || lost == 0 || out == 0 {
		t.Fatalf("crossers not exercised: %d moved, %d lost, %d migrated", moved, lost, out)
	}
}

// tailLanes is the particle count of badVoxelRig's last block.
const tailLanes = 3

// badVoxelRig is a hot five-block population on all-Wrap faces, so no
// particle is removed and every lane keeps its slot.
func badVoxelRig(seed uint64) (*rig, *Kernel) {
	r := newRig(6, 5, 4, 0.5)
	r.smoothFields(0.3)
	r.loadRandom(4*particle.Lanes+tailLanes, 0.6, seed)
	return r, r.kernel(-1, 1, 0.24)
}

// blockPanic runs f and returns what it panicked with, "" if nothing.
func blockPanic(f func()) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	f()
	return ""
}

// sameLanes reports whether lanes [l0, l1) of blocks a and b are
// bitwise equal in every field.
func sameLanes(a, b *particle.Block, l0, l1 int) bool {
	for l := l0; l < l1; l++ {
		if !bitEq32(a.Dx[l], b.Dx[l]) || !bitEq32(a.Dy[l], b.Dy[l]) || !bitEq32(a.Dz[l], b.Dz[l]) ||
			a.Voxel[l] != b.Voxel[l] ||
			!bitEq32(a.Ux[l], b.Ux[l]) || !bitEq32(a.Uy[l], b.Uy[l]) || !bitEq32(a.Uz[l], b.Uz[l]) ||
			!bitEq32(a.W[l], b.W[l]) {
			return false
		}
	}
	return true
}

// TestBlockRejectsBadVoxel holds every block routine to the bounds
// contract. A voxel of −1, len(ip) or MaxInt32 in any pushed lane of
// the range's first call — lane l0, l1−1 or inside the range, in any of
// the four blocks of a 32-lane call — must panic with the routine's
// bounds report (Go's index check; the driver's badVoxel panic for the
// assembly), never with a fault from a read outside the tables, and
// leave every particle and accumulator cell as it was. The same voxels
// in lanes outside [l0, l1) — the tail past N, the lanes below a
// pipeline range's l0 and above its l1, in any block of a call — must
// neither panic nor change one bit of particles, accumulators or
// counters against a run without them.
func TestBlockRejectsBadVoxel(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	probe, _ := badVoxelRig(0)
	bads := []int32{-1, int32(len(probe.ip.C)), math.MaxInt32}
	const n = 4*particle.Lanes + tailLanes

	for _, sh := range sweepShapes() {
		want := "push: a voxel of particles"
		if sh == KernelGo {
			want = "index out of range"
		}
		// A bad voxel in a pushed lane p of block bb: ranges within block
		// bb, and, where one call pushes several blocks, ranges whose first
		// call holds block bb as its first block, or (from block 0) as its
		// block bb.
		for _, bad := range bads {
			for bb := 1; bb < 4; bb++ {
				for l := 0; l < particle.Lanes; l++ {
					b0 := bb * particle.Lanes
					p := b0 + l
					rgs := [][2]int{{b0, b0 + particle.Lanes}, {p, b0 + particle.Lanes}, {b0, p + 1}}
					if sh == KernelAsm && AsmLanes() > particle.Lanes {
						rgs = append(rgs, [2]int{0, b0 + particle.Lanes}, [2]int{0, p + 1}, [2]int{p, n})
					}
					for _, rg := range rgs {
						r, k := badVoxelRig(uint64(l))
						useShape(k, sh)
						r.buf.Blk[bb].Voxel[l] = bad
						pre := particle.NewBuffer(0)
						pre.CopyFrom(r.buf)
						lo, hi := rg[0], rg[1]
						label := fmt.Sprintf("%s voxel %d in lane %d of block %d, range [%d,%d)", sh, bad, l, bb, lo, hi)
						msg := blockPanic(func() { k.advanceRange(r.buf, lo, hi, r.acc, new(BlockState)) })
						if !strings.Contains(msg, want) {
							t.Fatalf("%s: panicked with %q, want %q", label, msg, want)
						}
						for b := range r.buf.Blk {
							if !sameLanes(&r.buf.Blk[b], &pre.Blk[b], 0, particle.Lanes) {
								t.Fatalf("%s: block %d written before the panic", label, b)
							}
						}
						if lo, hi := r.acc.Window(); hi > lo {
							t.Fatalf("%s: accumulator window [%d,%d) touched before the panic", label, lo, hi)
						}
						for v := range r.acc.A {
							if r.acc.A[v] != (accum.Cell{}) {
								t.Fatalf("%s: accumulator voxel %d written before the panic", label, v)
							}
						}
					}
				}
			}
		}

		// Bad voxels in lanes outside the pushed range: the tail block's
		// lanes past N when the whole buffer is pushed, block 1's lanes
		// below l0 and from l1 on for the range [Lanes+l0, Lanes+l1), and
		// the lanes below l0 of block 1, 2 or 3 with the range reaching to
		// the end, so that a call holds them in its first block, and the
		// lanes from l1 on with the range starting in block 0, so that a
		// call holds them in its second, third or fourth.
		type outside struct {
			lo, hi int // pushed range
			blk    int // block holding the bad lanes
			l0, l1 int // the bad lanes
		}
		cases := []outside{{0, n, 4, tailLanes, particle.Lanes}}
		for l0 := 0; l0 < particle.Lanes; l0++ {
			for l1 := l0 + 1; l1 <= particle.Lanes; l1++ {
				lo, hi := particle.Lanes+l0, particle.Lanes+l1
				if l0 > 0 {
					cases = append(cases, outside{lo, hi, 1, 0, l0})
				}
				if l1 < particle.Lanes {
					cases = append(cases, outside{lo, hi, 1, l1, particle.Lanes})
				}
			}
		}
		for blk := 1; blk < 4; blk++ {
			for l := 1; l < particle.Lanes; l++ {
				p := blk*particle.Lanes + l
				cases = append(cases, outside{p, n, blk, 0, l}, outside{0, p, blk, l, particle.Lanes})
			}
		}
		for ci, c := range cases {
			for _, bad := range bads {
				rs, ks := badVoxelRig(uint64(100 + ci))
				rc, kc := badVoxelRig(uint64(100 + ci))
				useShape(ks, sh)
				useShape(kc, sh)
				b := &rs.buf.Blk[c.blk]
				for l := c.l0; l < c.l1; l++ {
					b.Voxel[l] = bad
				}
				pre := *b
				label := fmt.Sprintf("%s voxel %d in lanes [%d,%d) of block %d, range [%d,%d)", sh, bad, c.l0, c.l1, c.blk, c.lo, c.hi)
				if msg := blockPanic(func() { stepRange(ks, rs, sweepStep, c.lo, c.hi, nil) }); msg != "" {
					t.Fatalf("%s: panicked: %s", label, msg)
				}
				stepRange(kc, rc, sweepStep, c.lo, c.hi, nil)
				if !sameLanes(b, &pre, c.l0, c.l1) {
					t.Fatalf("%s: a lane outside the range was written", label)
				}
				copy(b.Voxel[c.l0:c.l1], rc.buf.Blk[c.blk].Voxel[c.l0:c.l1])
				checkSameState(t, label, rs, ks, rc, kc, true)
			}
		}
	}
}
