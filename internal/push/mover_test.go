package push

import (
	"fmt"
	"math"
	"runtime/debug"
	"testing"

	"govpic/internal/grid"
	"govpic/internal/particle"
	"govpic/internal/pipe"
)

// Mover fates, as batchFates reports them.
const (
	fateSlow = iota // left to moveP
	fateOne         // fast, one segment (no face within rounding)
	fateTwo         // fast, one interior or Wrap face and a second segment
)

// moverCase is one TestMoverFates population: particles placed by hand
// in zero fields, so each moves ballistically by u/γ·2dt/Δ (0.96·u/γ
// offsets on moverGrid), and the fate the batch routines must give each
// mover, in ascending index order.
type moverCase struct {
	name  string
	q     float64 // species charge; 0 means −1
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

func moverCases() []moverCase {
	g := moverGrid()
	var cs []moverCase
	for f := range 6 {
		cs = append(cs,
			moverCase{name: "interior/" + faceNames[f], ps: []particle.Particle{crosser(g, moverCell, f)}, want: []int{fateTwo}},
			moverCase{name: "wrap/" + faceNames[f], ps: []particle.Particle{crosser(g, edgeCell(g, f), f)}, want: []int{fateTwo}})
		for _, b := range []struct {
			name string
			set  func(k *Kernel, f int)
		}{
			{"reflect", func(k *Kernel, f int) { k.Bound[f] = Reflect }},
			{"absorb", func(k *Kernel, f int) { k.Bound[f] = Absorb }},
			{"migrate", func(k *Kernel, f int) { k.Bound[f] = Migrate }},
			{"reflux", func(k *Kernel, f int) { k.EnableReflux(f, RefluxParams{Uth: [3]float32{0.1, 0.1, 0.1}}) }},
		} {
			cs = append(cs, moverCase{
				name:  b.name + "/" + faceNames[f],
				ps:    []particle.Particle{crosser(g, edgeCell(g, f), f)},
				bound: func(k *Kernel) { b.set(k, f) },
				want:  []int{fateSlow},
			})
		}
	}

	v := int32(g.Voxel(moverCell[0], moverCell[1], moverCell[2]))
	below := math.Nextafter32(-1, -2)
	nan, inf, negZero := float32(math.NaN()), float32(math.Inf(1)), float32(math.Copysign(0, -1))
	cs = append(cs,
		// 2-face corners whose second face is y, x and z in turn.
		moverCase{name: "corner2/xy", ps: []particle.Particle{{Dx: 0.9, Dy: 0.85, Voxel: v, Ux: 0.5, Uy: 0.5, W: 1}}, want: []int{fateSlow}},
		moverCase{name: "corner2/yx", ps: []particle.Particle{{Dx: 0.85, Dy: 0.9, Voxel: v, Ux: 0.5, Uy: 0.5, W: 1}}, want: []int{fateSlow}},
		moverCase{name: "corner2/xz", ps: []particle.Particle{{Dx: -0.9, Dz: 0.85, Voxel: v, Ux: -0.5, Uz: 0.5, W: 1}}, want: []int{fateSlow}},
		moverCase{name: "corner3", ps: []particle.Particle{{Dx: 0.9, Dy: 0.85, Dz: -0.8, Voxel: v, Ux: 0.5, Uy: 0.5, Uz: -0.5, W: 1}}, want: []int{fateSlow}},
		// Equal x and y fractions: x is first, and y follows at fraction 0.
		moverCase{name: "tie", ps: []particle.Particle{{Dx: 0.9, Dy: 0.9, Voxel: v, Ux: 0.5, Uy: 0.5, W: 1}}, want: []int{fateSlow}},
		// One ulp outside the cell and barely moving: flagged, but no face
		// fraction is below 1 — and then moving outward, at fraction 0.
		moverCase{name: "outside/no-face", ps: []particle.Particle{{Dx: below, Voxel: v, Ux: 1e-9, W: 1}}, want: []int{fateOne}},
		moverCase{name: "outside/fraction0", ps: []particle.Particle{{Dx: below, Voxel: v, Ux: -1e-9, W: 1}}, want: []int{fateTwo}},
		moverCase{name: "on-face", ps: []particle.Particle{{Dy: 1, Voxel: v, Uy: 0.5, W: 1}}, want: []int{fateTwo}},
		// On the low face moving out, the fraction is 0/dd = −0, which
		// max32(f, 0) turns into +0; the −0 x offset shows the sign of
		// s·0 it is added to.
		moverCase{name: "on-face/minus-zero", ps: []particle.Particle{{Dx: negZero, Dy: -1, Voxel: v, Uy: -0.5, W: 1}}, want: []int{fateTwo}},
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
			{Voxel: v, W: math.Float32frombits(0x7fc00001)},
			{Dx: 0.8, Voxel: v, Ux: 0.5, W: 3e38},
		}, want: []int{fateSlow}},
		removalCase(g),
	)
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
		cell, fate := moverCell, fateTwo
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
		want:  []int{fateSlow, fateTwo, fateSlow, fateTwo, fateSlow, fateTwo},
	}
}

// moverRig loads case c on moverGrid with zero fields.
func moverRig(c moverCase) (*rig, *Kernel) {
	r := newRig(6, 5, 4, 0.5)
	r.ip.Load(r.f)
	for _, p := range c.ps {
		r.buf.Append(p)
	}
	q := c.q
	if q == 0 {
		q = -1
	}
	k := r.kernel(q, 1, 0.24)
	if c.bound != nil {
		c.bound(k)
	}
	return r, k
}

// batchLane is one mover's lane of a batch output.
type batchLane struct {
	out moveLanes
	l   int
}

// batchFates runs k's batch routine over movers in finishMovers' batches,
// applying nothing, and returns each mover's fate and its lane.
func batchFates(k *Kernel, buf *particle.Buffer, movers []particle.Mover) ([]int, []batchLane) {
	con := k.batchConsts()
	fates := make([]int, len(movers))
	lanes := make([]batchLane, len(movers))
	for top := len(movers); top > 0; {
		lo := max(top-particle.Lanes, 0)
		var out moveLanes
		var bits uint32
		if k.Asm {
			bits = moveBatchAVX2(buf.Blk, movers[:top], k.faces, &con, &out)
		} else {
			bits = moveBatchGo(buf.Blk, movers[:top], k.faces, &con, &out)
		}
		for l := range top - lo {
			switch {
			case bits&(1<<(twoSegs+l)) != 0:
				fates[lo+l] = fateTwo
			case bits&(1<<l) != 0:
				fates[lo+l] = fateOne
			}
			lanes[lo+l] = batchLane{out, l}
		}
		top = lo
	}
	return fates, lanes
}

// sameLane reports whether two batch lanes are bitwise equal in
// everything a fast lane with the given fate hands the driver.
func sameLane(x, y *batchLane, fate int) bool {
	a, b, l := &x.out, &y.out, x.l
	same := func(x, y *[4]float32) bool {
		return bitEq32(x[0], y[0]) && bitEq32(x[1], y[1]) && bitEq32(x[2], y[2]) && bitEq32(x[3], y[3])
	}
	cells := same(&a.c1[l].JX, &b.c1[l].JX) && same(&a.c1[l].JY, &b.c1[l].JY) && same(&a.c1[l].JZ, &b.c1[l].JZ)
	if fate == fateTwo {
		cells = cells && same(&a.c2[l].JX, &b.c2[l].JX) && same(&a.c2[l].JY, &b.c2[l].JY) && same(&a.c2[l].JZ, &b.c2[l].JZ)
	}
	return cells && bitEq32(a.dx[l], b.dx[l]) && bitEq32(a.dy[l], b.dy[l]) && bitEq32(a.dz[l], b.dz[l]) &&
		a.v0[l] == b.v0[l] && a.v[l] == b.v[l]
}

// TestMoveBatchRejectsBadLanes holds both batch routines to their
// bounds contract: a mover index outside the buffer's blocks or a voxel
// outside the face table makes the lane slow — moveP then fails on it
// as it always did — without a read outside blk, mv or faces, while the
// batch's good lanes stay fast.
func TestMoveBatchRejectsBadLanes(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	c := mixedCase(moverGrid(), 1) // one fast interior crosser
	for _, bad := range []int32{-1, math.MaxInt32, 0} {
		r, k := moverRig(c)
		bs := new(BlockState)
		k.advanceRange(r.buf, 0, r.buf.N(), k.Acc, bs)
		good := bs.Movers[0]
		movers := []particle.Mover{good, good, good}
		if bad == 0 {
			// A voxel outside the face table, on a copy of the particle.
			p := r.buf.At(int(good.Idx))
			for _, v := range []int32{-1, int32(len(k.faces)), math.MaxInt32} {
				p.Voxel = v
				r.buf.Append(p)
			}
			for i := range 3 {
				movers[i].Idx = int32(r.buf.N() - 3 + i)
			}
		} else {
			movers[1].Idx = bad
			movers[2].Idx = int32(len(r.buf.Blk) * particle.Lanes)
		}
		movers = append(movers, good)
		for _, sh := range sweepShapes() {
			k.Asm = sh == KernelAsm
			fates, _ := batchFates(k, r.buf, movers)
			want := []int{fateTwo, fateSlow, fateSlow, fateTwo}
			if bad == 0 {
				want[0] = fateSlow
			}
			for m := range want {
				if fates[m] != want[m] {
					t.Fatalf("%s bad %d: fates %v, want %v", sh, bad, fates, want)
				}
			}
		}
	}
}

// TestMoverFates holds the batched mover finish to the oracle's scalar
// moveP on hand-built movers: one-face crossings of all six faces,
// interior and Wrap; every other boundary action on every face; 2- and
// 3-face corners and an exact tie; an offset one ulp outside its cell,
// flagged with no face reached and, moving outward, a face at fraction
// 0; particles sitting on a face, one with a −0 fraction; non-finite
// inputs; NaN terms from an overflowing q·w; batches of 1–8, 9, 16, 17
// and 33 movers mixing fast
// and slow lanes; and removals that swap a finished fast mover into a
// slot of the same batch. Each case runs on {go, asm} × {serial, W 1,
// W 3}: particles, accumulators and Out order match bitwise, the
// counters and the accumulator window exactly. Each mover's fate is the
// case's, and the asm routine's fast lanes are bitwise the go routine's.
func TestMoverFates(t *testing.T) {
	paths := []struct {
		name string
		pool *pipe.Pool
	}{{"serial", nil}, {"W=1", pipe.New(1)}, {"W=3", pipe.New(3)}}
	seen := map[int]int{}
	for _, c := range moverCases() {
		t.Run(c.name, func(t *testing.T) {
			// The fates, from the movers of one serial sweep.
			r, k := moverRig(c)
			bs := new(BlockState)
			k.advanceRange(r.buf, 0, r.buf.N(), k.Acc, bs)
			if len(bs.Movers) != len(c.want) {
				t.Fatalf("%d movers, want %d", len(bs.Movers), len(c.want))
			}
			goFates, goOut := batchFates(k, r.buf, bs.Movers)
			for m, f := range goFates {
				if f != c.want[m] {
					t.Fatalf("mover %d (particle %d): fate %d, want %d", m, bs.Movers[m].Idx, f, c.want[m])
				}
				seen[f]++
			}
			if AsmAvailable() {
				k.Asm = true
				asmFates, asmOut := batchFates(k, r.buf, bs.Movers)
				for m, f := range asmFates {
					if f != goFates[m] {
						t.Fatalf("mover %d: asm fate %d, go %d", m, f, goFates[m])
					}
					if f != fateSlow && !sameLane(&asmOut[m], &goOut[m], f) {
						t.Fatalf("mover %d: asm lane %d %+v\ngo lane %+v", m, asmOut[m].l, asmOut[m].out, goOut[m].out)
					}
				}
			}

			// The state, against the oracle.
			for _, sh := range sweepShapes() {
				for _, path := range paths {
					label := fmt.Sprintf("%s %s", sh, path.name)
					rs, ks := moverRig(c)
					ro, ko := moverRig(c)
					ks.Asm = sh == KernelAsm
					stepRange(ks, rs, sweepStep, 0, rs.buf.N(), path.pool)
					stepRange(ko, ro, oracleStep, 0, ro.buf.N(), path.pool)
					checkSameState(t, label, rs, ks, ro, ko, false)
				}
			}
		})
	}
	if seen[fateSlow] == 0 || seen[fateOne] == 0 || seen[fateTwo] == 0 {
		t.Fatalf("fates not all exercised: %v", seen)
	}
}
