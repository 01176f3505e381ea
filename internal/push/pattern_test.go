package push

import (
	"fmt"
	"math"
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
	// nan gives lane 2 a NaN offset and lane 5 a NaN momentum.
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
	}
	k := r.kernel(-1, 1, 0.24)
	k.Bound[1] = Migrate
	k.Bound[2] = Absorb
	return r, k
}

// rangeSweep is advanceRange or the oracle's advanceRangeUnfused.
type rangeSweep func(k *Kernel, buf *particle.Buffer, lo, hi int, a *accum.Array, bs *BlockState)

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

// stepRange pushes particles [lo, hi) one step with sweep and finishes
// the movers in descending index order. With a nil pool it is
// AdvanceP's sequence restricted to the range (AdvancePUnfused's, for
// the oracle sweep); otherwise the pipelined one: the ranges of
// pipelinedRanges pushed on pool into private accumulators, then
// FinishBlocks and the reduction into k.Acc.
func stepRange(k *Kernel, r *rig, sweep rangeSweep, lo, hi int, pool *pipe.Pool) {
	if pool == nil {
		bs := new(BlockState)
		sweep(k, r.buf, lo, hi, k.Acc, bs)
		k.FinishBlocks(r.buf, []*BlockState{bs}, []*accum.Array{k.Acc})
		return
	}
	accs, blocks := blockFixture(r)
	rs := pipelinedRanges(lo, hi, true)
	pool.Run(pipe.NumBlocks, func(b int) {
		sweep(k, r.buf, rs[b][0], rs[b][1], accs[b], blocks[b])
	})
	k.FinishBlocks(r.buf, blocks, accs)
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
// the integer counters exactly, and NRuns equals the runs the pattern
// holds.
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
							ks.Asm = sh == KernelAsm
							runs := wantRuns(rs.buf, lo, hi, path.pool != nil)
							stepRange(ks, rs, (*Kernel).advanceRange, lo, hi, path.pool)
							stepRange(ko, ro, (*Kernel).advanceRangeUnfused, lo, hi, path.pool)
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
