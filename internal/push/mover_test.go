package push

import (
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"testing"

	"govpic/internal/accum"
	"govpic/internal/grid"
	"govpic/internal/particle"
	"govpic/internal/pipe"
)

// A mover's fate under the batch routine: fateSlow (left to moveP), or
// the number of segments a fast mover deposits — 1 when it reaches no
// face within rounding, 2 and 3 after one and two interior or Wrap
// faces.
const fateSlow = 0

// moverCase is one TestMoverFates population: particles placed by hand
// in zero fields, so each moves ballistically by u/γ·2dt/Δ (0.96·u/γ
// offsets on moverGrid at the default time step), and the fate the
// batch routine must give each mover, in ascending index order.
type moverCase struct {
	name  string
	q     float64 // species charge; 0 means −1
	dt    float64 // time step; 0 means 0.24
	ps    []particle.Particle
	bound func(k *Kernel) // boundary actions; nil keeps every face Wrap
	want  []int
}

// moverGrid is TestMoverFates' 6×5×4 grid; moverCell is a cell whose
// six neighbours are all interior.
func moverGrid() *grid.Grid { return grid.MustNew(6, 5, 4, 0.5, 0.5, 0.5) }

var moverCell = [3]int{3, 3, 2}

var faceNames = [6]string{"xlo", "xhi", "ylo", "yhi", "zlo", "zhi"}

// crosser returns a particle in cell c that crosses face f and no other:
// offset 0.8 toward the face, momentum 0.5 along its normal, and a small
// drift across it.
func crosser(g *grid.Grid, c [3]int, f int) particle.Particle {
	d := [3]float32{0.1, -0.2, 0.3}
	u := [3]float32{0.05, -0.04, 0.03}
	dir := float32(2*(f%2) - 1)
	d[f/2], u[f/2] = 0.8*dir, 0.5*dir
	return particle.Particle{
		Dx: d[0], Dy: d[1], Dz: d[2], Voxel: int32(g.Voxel(c[0], c[1], c[2])),
		Ux: u[0], Uy: u[1], Uz: u[2], W: 1,
	}
}

// corner is a particle in cell c that crosses its x-high face and then
// its y-high face: three segments.
func corner(g *grid.Grid, c [3]int) particle.Particle {
	return particle.Particle{Dx: 0.9, Dy: 0.85, Voxel: int32(g.Voxel(c[0], c[1], c[2])), Ux: 0.5, Uy: 0.5, W: 1}
}

// corner3 is a particle in cell c that reaches its x-high, y-high and
// z-low faces: a third face, so a slow mover.
func corner3(g *grid.Grid, c [3]int) particle.Particle {
	return particle.Particle{Dx: 0.9, Dy: 0.85, Dz: -0.8, Voxel: int32(g.Voxel(c[0], c[1], c[2])), Ux: 0.5, Uy: 0.5, Uz: -0.5, W: 1}
}

// edgeCell is moverCell moved onto face f of the grid.
func edgeCell(g *grid.Grid, f int) [3]int {
	c := moverCell
	if f%2 == 0 {
		c[f/2] = 1
	} else {
		c[f/2] = [3]int{g.NX, g.NY, g.NZ}[f/2]
	}
	return c
}

// resting is a particle that stays in moverCell: no mover.
func resting(g *grid.Grid) particle.Particle {
	return particle.Particle{Dx: 0.1, Dy: 0.2, Dz: -0.3, Voxel: int32(g.Voxel(moverCell[0], moverCell[1], moverCell[2])), W: 1}
}

// mixedBound gives the six faces six behaviours: XLo Absorb, XHi Wrap,
// YLo Migrate, YHi Reflect, ZLo Wrap, ZHi reflux.
func mixedBound(k *Kernel) {
	k.Bound = [6]Action{Absorb, Wrap, Migrate, Reflect, Wrap, Wrap}
	k.EnableReflux(5, RefluxParams{Uth: [3]float32{0.1, 0.1, 0.1}})
}

// boundaryActions sets face f to each boundary action other than Wrap.
var boundaryActions = []struct {
	name string
	set  func(k *Kernel, f int)
}{
	{"reflect", func(k *Kernel, f int) { k.Bound[f] = Reflect }},
	{"absorb", func(k *Kernel, f int) { k.Bound[f] = Absorb }},
	{"migrate", func(k *Kernel, f int) { k.Bound[f] = Migrate }},
	{"reflux", func(k *Kernel, f int) { k.EnableReflux(f, RefluxParams{Uth: [3]float32{0.1, 0.1, 0.1}}) }},
}

func moverCases() []moverCase {
	g := moverGrid()
	var cs []moverCase
	for f := range 6 {
		cs = append(cs,
			moverCase{name: "interior/" + faceNames[f], ps: []particle.Particle{crosser(g, moverCell, f)}, want: []int{2}},
			moverCase{name: "wrap/" + faceNames[f], ps: []particle.Particle{crosser(g, edgeCell(g, f), f)}, want: []int{2}})
		for _, b := range boundaryActions {
			cs = append(cs, moverCase{
				name:  b.name + "/" + faceNames[f],
				ps:    []particle.Particle{crosser(g, edgeCell(g, f), f)},
				bound: func(k *Kernel) { b.set(k, f) },
				want:  []int{fateSlow},
			})
		}
	}
	// A corner whose second face, y-high, is a grid face: it wraps, or
	// any other action sends the mover to moveP.
	yEdge := edgeCell(g, 3)
	cs = append(cs, moverCase{name: "second/wrap", ps: []particle.Particle{corner(g, yEdge)}, want: []int{3}})
	for _, b := range boundaryActions {
		cs = append(cs, moverCase{
			name:  "second/" + b.name,
			ps:    []particle.Particle{corner(g, yEdge)},
			bound: func(k *Kernel) { b.set(k, 3) },
			want:  []int{fateSlow},
		})
	}

	v := int32(g.Voxel(moverCell[0], moverCell[1], moverCell[2]))
	below := math.Nextafter32(-1, -2)
	nan, inf, negZero := float32(math.NaN()), float32(math.Inf(1)), float32(math.Copysign(0, -1))
	nanPayload := math.Float32frombits(0x7fc00001)
	// long is a corner mover whose third segment is far longer than its
	// first two (dt 1: 4·u/γ offsets): x is crossed after 0.005 and y after
	// 0.12 more of x, and 1.77 of x remain. It rests on the z-high face
	// without moving in z, so every x row multiplies by 1 − mz = 0.
	long := particle.Particle{Dx: 0.995, Dy: 0.98, Dz: 1, Voxel: v, Ux: 0.5418, Uy: 0.0855, W: 1}
	overflow := long
	overflow.W = 3e38
	cs = append(cs,
		// 2-face corners whose second face is y, x and z in turn.
		moverCase{name: "corner2/xy", ps: []particle.Particle{corner(g, moverCell)}, want: []int{3}},
		moverCase{name: "corner2/yx", ps: []particle.Particle{{Dx: 0.85, Dy: 0.9, Voxel: v, Ux: 0.5, Uy: 0.5, W: 1}}, want: []int{3}},
		moverCase{name: "corner2/xz", ps: []particle.Particle{{Dx: -0.9, Dz: 0.85, Voxel: v, Ux: -0.5, Uz: 0.5, W: 1}}, want: []int{3}},
		moverCase{name: "corner3", ps: []particle.Particle{corner3(g, moverCell)}, want: []int{fateSlow}},
		// Equal x and y fractions: x is first, and y follows at fraction 0.
		moverCase{name: "tie", ps: []particle.Particle{{Dx: 0.9, Dy: 0.9, Voxel: v, Ux: 0.5, Uy: 0.5, W: 1}}, want: []int{3}},
		// One ulp outside the cell and barely moving: flagged, but no face
		// fraction is below 1 — and then moving outward, at fraction 0.
		moverCase{name: "outside/no-face", ps: []particle.Particle{{Dx: below, Voxel: v, Ux: 1e-9, W: 1}}, want: []int{1}},
		moverCase{name: "outside/fraction0", ps: []particle.Particle{{Dx: below, Voxel: v, Ux: -1e-9, W: 1}}, want: []int{2}},
		moverCase{name: "on-face", ps: []particle.Particle{{Dy: 1, Voxel: v, Uy: 0.5, W: 1}}, want: []int{2}},
		// On the low face moving out, the fraction is 0/dd = −0, which
		// max32(f, 0) turns into +0; the −0 x offset shows the sign of
		// s·0 it is added to.
		moverCase{name: "on-face/minus-zero", ps: []particle.Particle{{Dx: negZero, Dy: -1, Voxel: v, Uy: -0.5, W: 1}}, want: []int{2}},
		// Every non-finite mover has a NaN term: a NaN input or an infinite
		// weight directly, an infinite offset through the push (its field
		// interpolation takes ∞·0) and an infinite momentum through 1/γ.
		moverCase{name: "nonfinite", ps: []particle.Particle{
			{Dx: nan, Voxel: v, W: 1},
			{Voxel: v, Ux: inf, W: 1},
			{Dx: 0.8, Voxel: v, Ux: 0.5, W: nan},
			{Dx: 0.8, Voxel: v, Ux: 0.5, W: inf},
			{Dx: inf, Dy: 0.8, Voxel: v, Ux: -0.5, Uy: 0.5, Uz: 0.2, W: 1},
		}, want: []int{fateSlow, fateSlow, fateSlow, fateSlow, fateSlow}},
		// q·w overflows, so a finite crosser's terms hold ∞·0 = NaN; its
		// start cell already holds a NaN of another payload, so the order
		// of the NaN additions shows.
		moverCase{name: "nan-terms", q: -2, ps: []particle.Particle{
			{Voxel: v, W: nanPayload},
			{Dx: 0.8, Voxel: v, Ux: 0.5, W: 3e38},
		}, want: []int{fateSlow}},
		moverCase{name: "seg3/long", dt: 1, ps: []particle.Particle{long}, want: []int{3}},
		// With q·w = −3e38 only the long third segment overflows an x row
		// to ∞ before the factor 1 − mz = 0: a NaN in segment 3's terms
		// alone, added into a final cell that holds another payload.
		moverCase{name: "seg3/nan", dt: 1, ps: []particle.Particle{
			{Voxel: int32(g.Voxel(moverCell[0]+1, moverCell[1]+1, moverCell[2])), W: nanPayload},
			overflow,
		}, want: []int{fateSlow}},
		removalCase(g),
		slowMidCase(g),
		sameCellCase(g),
	)
	for j := range 2 * particle.Lanes {
		cs = append(cs, slowAtCase(g, j))
	}
	for j := range particle.Lanes {
		cs = append(cs, slowAtCase(g, j, j+particle.Lanes))
	}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 33} {
		cs = append(cs, mixedCase(g, n))
	}
	return cs
}

// mixedCase is n movers between resting particles under mixedBound:
// mover m crosses face m%6, from an edge cell when m%4 >= 2, so batches
// hold fast and slow lanes and, pipelined, spread over several blocks.
func mixedCase(g *grid.Grid, n int) moverCase {
	c := moverCase{name: fmt.Sprintf("mixed/%d", n), bound: mixedBound}
	var k Kernel
	mixedBound(&k)
	for m := range n {
		f := m % 6
		cell, fate := moverCell, 2
		if m%4 >= 2 {
			cell = edgeCell(g, f)
			if k.Bound[f] != Wrap {
				fate = fateSlow
			}
		}
		c.ps = append(c.ps, resting(g), crosser(g, cell, f))
		c.want = append(c.want, fate)
	}
	return c
}

// removalCase puts fast movers in the top slots of a batch and absorbed
// ones below them, so each RemoveSwap moves an already finished fast
// mover, or a resting particle, into a slot of the same batch.
func removalCase(g *grid.Grid) moverCase {
	absorbed := crosser(g, edgeCell(g, 0), 0)
	fast := crosser(g, moverCell, 1)
	return moverCase{
		name:  "removal",
		bound: mixedBound,
		ps:    []particle.Particle{resting(g), absorbed, fast, absorbed, resting(g), fast, absorbed, resting(g), fast},
		want:  []int{fateSlow, 2, fateSlow, 2, fateSlow, 2},
	}
}

// slowMidCase is eleven fast movers but one: the first batch (movers
// 3–10) finishes 10 down to 7 and stops at the absorbed mover 6, and the
// next batch plans movers 3–5 again with 0–2.
func slowMidCase(g *grid.Grid) moverCase {
	c := moverCase{name: "slow-mid", bound: mixedBound}
	for m := range 11 {
		p, fate := crosser(g, moverCell, m%6), 2
		if m%3 == 0 {
			p, fate = corner(g, moverCell), 3
		}
		if m == 6 {
			p, fate = crosser(g, edgeCell(g, 0), 0), fateSlow
		}
		c.ps = append(c.ps, p)
		c.want = append(c.want, fate)
	}
	return c
}

// slowAtCase is sixteen movers, the widest batch's width, fast but the
// slow ones: each mover j in slow crosses an absorbing face, so a batch
// stops at the highest slow lane below its top and moveP finishes it.
// With one slow mover the case puts it at lane j of the 16-lane batch
// (and of an 8-lane one, mod 8); with two, one in each 8-lane half, a
// batch that ran on past its first slow lane would finish the other.
func slowAtCase(g *grid.Grid, slow ...int) moverCase {
	c := moverCase{name: "slow-at", bound: mixedBound}
	for i, j := range slow {
		c.name += fmt.Sprintf("%c%d", "/+"[min(i, 1)], j)
	}
	for m := range 2 * particle.Lanes {
		p, fate := crosser(g, moverCell, m%6), 2
		if slices.Contains(slow, m) {
			p, fate = crosser(g, edgeCell(g, 0), 0), fateSlow
		}
		c.ps = append(c.ps, p)
		c.want = append(c.want, fate)
	}
	return c
}

// sameCellCase is sixteen movers that all leave moverCell through its
// x-high face, with weights spread over four decades, above particles
// resting in both cells: every lane adds into the same two cells, which
// already hold current, so the order of the adds — lane 15 down to lane
// 0, across the two 8-lane halves too — shows in the rounding.
func sameCellCase(g *grid.Grid) moverCase {
	c := moverCase{name: "same-cell"}
	next := resting(g)
	next.Voxel += int32(g.Voxel(1, 0, 0) - g.Voxel(0, 0, 0))
	c.ps = append(c.ps, resting(g), next)
	for m := range 2 * particle.Lanes {
		p := crosser(g, moverCell, 1)
		p.W = float32(math.Pow(10, float64(m%5)-2)) * (1 + float32(m)/7)
		p.Dy += float32(m) / 40
		c.ps = append(c.ps, p)
		c.want = append(c.want, 2)
	}
	return c
}

// moverRig loads case c on moverGrid with zero fields.
func moverRig(c moverCase) (*rig, *Kernel) {
	r := newRig(6, 5, 4, 0.5)
	r.ip.LoadPar(nil, r.f)
	for _, p := range c.ps {
		r.buf.Append(p)
	}
	q, dt := c.q, c.dt
	if q == 0 {
		q = -1
	}
	if dt == 0 {
		dt = 0.24
	}
	k := r.kernel(q, 1, dt)
	if c.bound != nil {
		c.bound(k)
	}
	return r, k
}

// moveBatch runs k's batch routine over mv into k's accumulator.
func moveBatch(k *Kernel, buf *particle.Buffer, mv []particle.Mover, con *moveConsts, tally *moveTally) int {
	return k.moveBatch(buf.Blk, mv, k.Acc.A, con, tally)
}

// newTally is a moveTally with an empty window.
func newTally() moveTally { return moveTally{lo: math.MaxInt32, hi: -1} }

// moverFates returns the fate of each mover of one serial sweep of case
// c, pushed by the block routine of assembly shape sh. Each mover runs
// as a batch of its own, top down, so the tally gives its segment
// count. Then a fresh rig runs finishMovers' batches, stepping over
// each slow mover instead of finishing it: every call must finish
// exactly the movers the one-mover calls found fast, down to the first
// slow one, and deposit the same segments.
func moverFates(t *testing.T, c moverCase, sh string) []int {
	t.Helper()
	movers := func() (*rig, *Kernel, []particle.Mover) {
		r, k := moverRig(c)
		useShape(k, sh)
		bs := new(BlockState)
		k.advanceRange(r.buf, 0, r.buf.N(), k.Acc, bs)
		return r, k, bs.Movers
	}
	r, k, mv := movers()
	con := k.batchConsts()
	fates := make([]int, len(mv))
	var nseg int64
	for m := len(mv) - 1; m >= 0; m-- {
		tally := newTally()
		if moveBatch(k, r.buf, mv[m:m+1], &con, &tally) == 1 {
			fates[m] = int(tally.nseg)
			nseg += tally.nseg
		}
	}

	r, k, mv = movers()
	tally := newTally()
	for top := len(mv); top > 0; {
		n := moveBatch(k, r.buf, mv[:top], &con, &tally)
		for m := top - n; m < top; m++ {
			if fates[m] == fateSlow {
				t.Fatalf("%s: batch finished mover %d, which is slow alone", sh, m)
			}
		}
		top -= n
		if n < k.batchLanes() && top > 0 {
			top--
			if fates[top] != fateSlow {
				t.Fatalf("%s: batch stopped at mover %d, which is fast alone", sh, top)
			}
		}
	}
	if tally.nseg != nseg {
		t.Fatalf("%s: batches deposited %d segments, one-mover calls %d", sh, tally.nseg, nseg)
	}
	return fates
}

// TestMoveBatchRejectsBadLanes holds each batch routine (the one of
// every assembly shape) to its bounds contract. A mover whose index is
// outside the buffer's blocks, whose voxel is outside the face table or
// the accumulator, or whose first or second face step (test-built step
// tables) leads outside them is slow: the routine finishes the fast
// mover above it, stops, and writes nothing for it — moveP then fails
// on it as it always did — without a read outside blk, mv, faces or ac.
func TestMoveBatchRejectsBadLanes(t *testing.T) {
	skipNarrower(t, particle.Lanes)
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	g := moverGrid()
	// Particle 0 is a corner (faces x-high, then y-high), 1 an interior
	// x-low crosser (the good mover), 2 an interior x-high crosser and 3 a
	// corner through x-high, then y-low.
	v0 := g.Voxel(moverCell[0], moverCell[1], moverCell[2])
	down := particle.Particle{Dx: 0.9, Dy: -0.85, Voxel: int32(v0), Ux: 0.5, Uy: -0.5, W: 1}
	c := moverCase{ps: []particle.Particle{corner(g, moverCell), crosser(g, moverCell, 0), crosser(g, moverCell, 1), down}}
	type bad struct {
		name string
		p    int // the bad mover's particle
		mk   func(r *rig, k *Kernel, m *particle.Mover, con *moveConsts) []accum.Cell
	}
	var bads []bad
	for _, idx := range []int32{-1, math.MaxInt32, 3 * particle.Lanes} {
		bads = append(bads, bad{fmt.Sprintf("index %d", idx), 0, func(r *rig, k *Kernel, m *particle.Mover, _ *moveConsts) []accum.Cell {
			m.Idx = idx
			return k.Acc.A
		}})
	}
	for _, vox := range []int32{-1, int32(g.NV()), math.MaxInt32} {
		bads = append(bads, bad{fmt.Sprintf("voxel %d", vox), 0, func(r *rig, k *Kernel, m *particle.Mover, _ *moveConsts) []accum.Cell {
			r.buf.Blk[0].Voxel[0] = vox
			return k.Acc.A
		}})
	}
	for _, f := range []int{1, 3} {
		for _, step := range []int32{1 << 20, -1 << 20} {
			for _, p := range []int{0, 2} {
				if f == 3 && p == 2 {
					continue // the x-high crosser has no y face
				}
				bads = append(bads, bad{fmt.Sprintf("particle %d step %s %d", p, faceNames[f], step), p, func(r *rig, k *Kernel, m *particle.Mover, con *moveConsts) []accum.Cell {
					con.step[f] = step
					return k.Acc.A
				}})
			}
		}
	}
	// Accumulators that end just before the corner's last voxel, and
	// before the voxel after the x-high face, which the y-low corner
	// leaves for one inside.
	bads = append(bads,
		bad{"accumulator", 0, func(r *rig, k *Kernel, m *particle.Mover, con *moveConsts) []accum.Cell {
			return k.Acc.A[:v0+1+g.Voxel(0, 1, 0)]
		}},
		bad{"accumulator", 2, func(r *rig, k *Kernel, m *particle.Mover, con *moveConsts) []accum.Cell {
			return k.Acc.A[:v0+1]
		}},
		bad{"accumulator", 3, func(r *rig, k *Kernel, m *particle.Mover, con *moveConsts) []accum.Cell {
			return k.Acc.A[:v0+1]
		}})

	for _, b := range bads {
		for _, sh := range asmShapes() {
			r, k := moverRig(c)
			useShape(k, sh)
			bs := new(BlockState)
			k.advanceRange(r.buf, 0, r.buf.N(), k.Acc, bs)
			if len(bs.Movers) != 4 {
				t.Fatalf("%d movers, want 4", len(bs.Movers))
			}
			mv := []particle.Mover{bs.Movers[b.p], bs.Movers[1]}
			con := k.batchConsts()
			ac := b.mk(r, k, &mv[0], &con)
			p := r.buf.At(b.p)
			tally := newTally()
			n := k.moveBatch(r.buf.Blk, mv, ac, &con, &tally)
			label := fmt.Sprintf("%s (particle %d) %s", b.name, b.p, sh)
			if n != 1 || tally.nseg != 2 {
				t.Fatalf("%s: finished %d movers with %d segments, want the top one with 2", label, n, tally.nseg)
			}
			if !bitEqParticle(r.buf.At(b.p), p) {
				t.Fatalf("%s: the slow mover's particle was written", label)
			}
		}
	}
}

// TestMoverHandBuilt finishes mover records built by hand, with
// displacements the push does not produce, through finishMovers on every
// shape and through the oracle's moveP, and requires the same
// state: a mover that reaches no face with a −0 z displacement from a
// −0 z offset keeps the −0 (d + s·dd, where a further d + 0 would make
// it +0).
func TestMoverHandBuilt(t *testing.T) {
	g := moverGrid()
	negZero := float32(math.Copysign(0, -1))
	c := moverCase{ps: []particle.Particle{{Dx: 0.1, Dz: negZero, Voxel: int32(g.Voxel(moverCell[0], moverCell[1], moverCell[2])), W: 1}}}
	movers := []particle.Mover{{DispX: 0.2, DispY: 0.1, DispZ: negZero}}
	for _, sh := range sweepShapes() {
		rs, ks := moverRig(c)
		ro, ko := moverRig(c)
		useShape(ks, sh)
		bs := &BlockState{Movers: append([]particle.Mover(nil), movers...)}
		ks.finishMovers(rs.buf, bs, ks.Acc, false)
		ks.MergeStats(bs)
		ko.finishOracle(ro.buf, []*BlockState{{Movers: append([]particle.Mover(nil), movers...)}}, []*accum.Array{ko.Acc})
		checkSameState(t, sh, rs, ks, ro, ko, false)
		if p := rs.buf.At(0); math.Float32bits(p.Dz) != math.Float32bits(negZero) {
			t.Fatalf("%s: z offset %v, want −0", sh, p.Dz)
		}
	}
}

// TestMoverFates holds the batched mover finish to the oracle's scalar
// moveP on hand-built movers: one-face crossings of all six faces,
// interior and Wrap; every other boundary action on every face, and on
// a corner's second face, which also wraps; 2-face corners, an exact tie
// and a 3-face corner; an offset one ulp outside its cell, flagged with
// no face reached and, moving outward, a face at fraction 0; particles
// sitting on a face, one with a −0 fraction; non-finite inputs; NaN
// terms from an overflowing q·w, in every segment and in the third
// alone; a batch stopping at a slow mover in its middle; batches of
// 1–8, 9, 16, 17 and 33 movers mixing fast and slow lanes; a 16-mover
// batch with one slow mover at each lane, and with two, one in each
// 8-lane half; sixteen movers adding into the same two cells; and
// removals that swap a finished fast mover into a slot of the same
// batch. Each
// case runs on every shape × {serial, W 1, W 3}: particles, accumulators
// and Out order match bitwise, the counters and the accumulator window
// exactly. Each mover's fate is the case's under the batch routine, on
// every assembly shape.
func TestMoverFates(t *testing.T) {
	paths := []struct {
		name string
		pool *pipe.Pool
	}{{"serial", nil}, {"W=1", pipe.New(1)}, {"W=3", pipe.New(3)}}
	seen := map[int]int{}
	cases, ran := moverCases(), 0
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ran++
			for _, sh := range asmShapes() {
				fates := moverFates(t, c, sh)
				if len(fates) != len(c.want) {
					t.Fatalf("%d movers, want %d", len(fates), len(c.want))
				}
				for m, f := range fates {
					if f != c.want[m] {
						t.Fatalf("%s: mover %d: fate %d, want %d", sh, m, f, c.want[m])
					}
					seen[f]++
				}
			}

			// The state, against the oracle.
			for _, sh := range sweepShapes() {
				for _, path := range paths {
					label := fmt.Sprintf("%s %s", sh, path.name)
					rs, ks := moverRig(c)
					ro, ko := moverRig(c)
					useShape(ks, sh)
					stepRange(ks, rs, sweepStep, 0, rs.buf.N(), path.pool)
					stepRange(ko, ro, oracleStep, 0, ro.buf.N(), path.pool)
					checkSameState(t, label, rs, ks, ro, ko, false)
				}
			}
		})
	}
	if len(asmShapes()) == 0 {
		t.Skip("fates not checked: the batch routine is assembly, and this build/CPU has none (the states matched the oracle)")
	}
	if ran < len(cases) {
		return // -run chose some cases: they need not exercise every fate
	}
	for f := fateSlow; f <= 3; f++ {
		if seen[f] == 0 {
			t.Fatalf("fates not all exercised: %v", seen)
		}
	}
}

// BenchmarkMoveBatch times the batch routines alone on the movers of
// one push of the hot and decayed rigs of BenchmarkPushSortedRuns (see
// benchSortedRig): every assembly shape — asm8 the 8-lane routine, asm
// the widest — at 1, 2, 4, … movers per call up to its width. A pass
// walks the movers top down in calls of that many and steps over each
// slow one (moveP's, not timed); the buffer and the accumulators are
// restored outside the timer. A call at the width gets mv[:top], as
// finishMovers' does, and prefetches the next batch; a narrower call
// gets only its movers, so it prefetches nothing. ns/call and ns/mover
// are per routine call and per mover it finished.
func BenchmarkMoveBatch(b *testing.B) {
	for _, order := range []string{"hot", "decayed"} {
		for _, sh := range asmShapes() {
			r, k := benchSortedRig(100000, order)
			useShape(k, sh)
			var bs BlockState
			k.advanceRange(r.buf, 0, r.buf.N(), k.Acc, &bs)
			mv := bs.Movers
			pristine := particle.NewBuffer(0)
			pristine.CopyFrom(r.buf)
			con := k.batchConsts()
			for m := 1; m <= k.batchLanes(); m *= 2 {
				b.Run(fmt.Sprintf("%s/%s/movers=%d", sh, order, m), func(b *testing.B) {
					var calls, done int
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						r.buf.CopyFrom(pristine)
						r.acc.ClearFull()
						tally := newTally()
						b.StartTimer()
						for top := len(mv); top > 0; {
							lo := max(top-m, 0)
							if m == k.batchLanes() {
								lo = 0 // the driver's call: the next batch is prefetched
							}
							n := k.moveBatch(r.buf.Blk, mv[lo:top], k.Acc.A, &con, &tally)
							calls++
							done += n
							if n < min(top-lo, m) {
								top-- // step over the slow mover
							}
							top -= n
						}
					}
					b.StopTimer()
					ns := float64(b.Elapsed().Nanoseconds())
					b.ReportMetric(ns/float64(calls), "ns/call")
					b.ReportMetric(ns/float64(done), "ns/mover")
				})
			}
		}
	}
}
