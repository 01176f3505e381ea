// Package push implements VPIC's particle inner loop: the relativistic
// Boris push with precomputed per-voxel field interpolators, the
// charge-conserving (Villasenor–Buneman) current scatter into per-cell
// accumulators, and the `move_p` machinery that finishes the minority of
// particles whose step crosses cell faces — splitting the trajectory at
// each face and depositing the per-segment current so that the discrete
// continuity equation ∂ρ/∂t + ∇·J = 0 holds exactly.
//
// This is the kernel whose sustained rate the paper reports as
// 0.488 Pflop/s (s.p.) on Roadrunner's Cell SPEs. The flop accounting
// below (FlopsPerPush, FlopsPerSegment) counts every single-precision
// add/sub/mul as one flop and a divide or square root as one flop — the
// convention of the paper's community — so measured particles/s convert
// directly into a flop rate.
//
// There is one sweep, advanceRange (this file). It walks the AoSoA
// storage one 8-lane particle.Block at a time and pushes each block
// with one routine call, every lane against its own voxel's
// interpolator — VPIC's shape, a vector of consecutive particles
// whatever cells they sit in. The routine is advanceBlockAVX2 when
// Kernel.Asm is set (push_avx2_amd64.s), else the portable
// advanceBlockGo (span.go); on an AVX-512 host Kernel.Asm pushes four
// blocks per call instead, as two independent 16-lane chains side by
// side (advanceBlock32AVX512, push_avx512_amd64.s): the push is
// latency-bound with one chain in flight, and the second chain fills
// the first one's idle slots. The routine owns its blocks: it loads
// and bounds-checks each lane's interpolator from the table, pushes
// the lanes, and folds their in-cell current into the accumulator in
// ascending lane order.
// Consecutive lanes of one voxel form a run, carried across calls in a
// laneRun; the run's cell is stored and reloaded through memory on
// every lane, without a branch. The driver keeps the block loop and
// turns the returned crosser bits into mover records.
//
// The movers are finished by moveP, VPIC's scalar move_p, except that
// with Kernel.Asm they go in batches at the push's width (finishMovers):
// sixteen at a time on an AVX-512 host (moveBatch16AVX512,
// move_avx512_amd64.s), eight with AVX2 alone (moveBatchAVX2). One call
// plans every lane's faces through a per-voxel face table and finishes
// the fast lanes itself, from the top mover down — at most two faces,
// each interior or Wrap, no NaN term — and stops at the first slow
// mover, which the driver hands to moveP; the next call starts below
// it. In a pipeline's pool task the driver runs moveP only
// on a mover that stays local (Kernel.local: no face but interior or
// Wrap ones), stops at the first that may not, and leaves the rest to
// FinishBlocks.
//
// Every block routine performs the identical floating-point operations
// per particle, the batch routines finish each mover with moveP's, and
// every accumulator slot receives its adds in the per-particle order, so
// the result — particles, movers, accumulators, counters — is bitwise
// independent of Kernel.Asm and of the width, for any buffer, sorted or
// not. The tests hold the routines to the per-particle oracle in
// oracle_test.go, whose movers all go through moveP.
//
// The kernel exposes two execution styles. AdvanceP is the serial path:
// one sweep over the buffer depositing into the kernel's accumulator.
// AdvanceBlock/FinishBlocks is the pipelined path mirroring the paper's
// SPE decomposition: contiguous particle ranges are pushed concurrently,
// each scattering into a private accumulator, and each task then
// finishes its own movers from the top down to its first non-local
// one, as VPIC's pipelines run move_p on their own movers. FinishBlocks
// finishes the rest serially, blocks last to first and each block's
// movers top down, starting below those its task finished — the
// globally descending index order of the serial path — so the particle
// state is bitwise identical to AdvanceP for any worker count. (The
// ELost energy tally alone is a float64 sum of per-block partial sums,
// so it matches the serial chain to rounding, not bitwise.)
//
// Why finishing in the task changes no bit: a fast or local mover
// reads only its own lanes, its record, the face table, Bound and the
// constants, and writes only its own lanes (scalar stores), its block's
// private accumulator and BlockState. The serial finish of a later
// block touches none of these: its moveP writes its own slot, its own
// block's accumulator, Out and the reflux RNG, and RemoveSwap(i) copies
// slot N−1 ≥ i into slot i — both inside the finishing block's range, a
// later one, or the shell tail when the interior range is finished. So
// block b's task movers add into its accumulator with the same inputs
// and in the same order as the all-serial finish did — top down, ahead
// of its first non-local mover — and FinishBlocks resumes there as the
// serial loop would.
package push

import (
	"fmt"
	"math"
	"math/bits"

	"govpic/internal/accum"
	"govpic/internal/grid"
	"govpic/internal/interp"
	"govpic/internal/particle"
)

// Flop accounting for the kernel (counts audited against the code —
// identical for both block routines and the oracle):
//
//	E interpolation             3 × (3 mul + 3 add + 1 mul)  = 21
//	cB interpolation            3 × (1 mul + 1 add)          =  6
//	first half kick             3 add                        =  3
//	1/γ at midpoint             3 mul + 3 add + 1 sqrt + 1 div = 8
//	Boris t vector              1 mul + 3 mul                =  4
//	t², s = 2/(1+t²)            3 mul + 2 add + 1 add + 1 div = 7
//	u' = u + u×t                6 mul + 6 add/sub            = 12
//	u += s·(u'×t)               9 mul + 6 add/sub            = 15
//	second half kick            3 add                        =  3
//	1/γ after kick              3 mul + 3 add + 1 sqrt + 1 div = 8
//	displacement (u·giδ)        6 mul                        =  6
//	new offsets                 3 add                        =  3
//	in-cell current scatter     qw 1 mul; h 3 mul; mid 3 add;
//	                            v5 3 mul; 3 × (1 mul + 4 add
//	                            + 6 mul + 8 add)             = 67
//	                                                   total = 163
const (
	// FlopsPerPush is the single-precision flop count of the in-cell fast
	// path per particle per step.
	FlopsPerPush = 163
	// FlopsPerSegment is the additional cost of one move_p trajectory
	// segment (fraction search + segment scatter).
	FlopsPerSegment = 90
)

// Data-motion model of the particle step (minimum cache traffic; the
// "PIC moves more data per flop" argument of the paper, made concrete).
// Under the AoSoA layout particle state streams at block granularity:
// a sweep over a lane-aligned range moves whole 256-byte blocks, which
// is the same 32 B read + 32 B write per particle as the old AoS records
// whenever blocks are full — a partially filled tail block still moves
// all particle.BlockBytes, a ≤ (Lanes−1)/n relative overhead that the
// model ignores. The fused sweep amortizes interpolator and accumulator
// traffic over voxel runs, so those bytes are counted per run, not per
// particle:
const (
	// BytesPerPush is the per-particle data motion of the UNFUSED fast
	// path: a 32-byte particle read + write, one 72-byte interpolator
	// read and a 48-byte accumulator read-modify-write per particle.
	// Kept as the pre-fusion baseline of the memory-traffic model.
	BytesPerPush = particle.ParticleBytes + particle.ParticleBytes + 72 + 2*accum.CellBytes
	// BytesPerParticle is the irreducible per-particle traffic of the
	// fused sweep: the 32-byte particle read and write (8 lanes of a
	// 256-byte block amortize to the same figure).
	BytesPerParticle = particle.ParticleBytes + particle.ParticleBytes
	// BytesPerRun is the per-voxel-run traffic of the fused sweep: one
	// 72-byte interpolator load plus one accumulator cell load and store.
	// The block routines read the interpolator once per lane, but a run's
	// lanes read the same 72 bytes, so the model counts distinct lines.
	// A sorted buffer with ppc particles per cell pays this once per ppc
	// particles; an adversarially unsorted buffer degenerates to one run
	// per particle, i.e. exactly BytesPerPush.
	BytesPerRun = 72 + 2*accum.CellBytes
	// BytesPerSegment is the extra traffic of one move_p segment: the
	// traversed cell's accumulator read-modify-write.
	BytesPerSegment = 2 * accum.CellBytes
)

// Action selects what happens to a particle crossing one local domain
// face.
type Action uint8

const (
	// Wrap re-enters the particle on the opposite side of the local grid
	// (single-rank periodic axis).
	Wrap Action = iota
	// Reflect specularly reflects the particle (momentum and remaining
	// displacement flip along the face normal).
	Reflect
	// Absorb removes the particle from the simulation.
	Absorb
	// Migrate hands the particle to the domain layer: it is removed
	// locally and appended to the face's outgoing buffer with its
	// remaining displacement.
	Migrate
)

// Outgoing is a particle mid-move that crossed a Migrate face. Voxel
// still holds the sender's boundary cell; the receiving rank remaps it
// to its own entry cell and finishes the move. The particle travels in
// gathered AoS form — the AoSoA block layout is a local storage choice
// and never appears on the wire.
type Outgoing struct {
	P                   particle.Particle
	DispX, DispY, DispZ float32
}

// OutgoingWireBytes is one Outgoing's wire size: the 32-byte particle
// plus the three remaining-displacement words.
const OutgoingWireBytes = 44

// OutgoingBatch is the form in which a face's migrating particles
// travel between ranks — a named type so transports can recognize and
// size it.
type OutgoingBatch []Outgoing

// PayloadBytes sizes the batch for transport accounting.
func (b OutgoingBatch) PayloadBytes() int { return OutgoingWireBytes * len(b) }

// BlockState holds one pipeline block's private push state: the movers
// recorded during the concurrent phase, how many of them are finished,
// and the statistics counters of everything the block pushed. Kernel
// totals are the sum over blocks (MergeStats), so per-block counters
// add up to exactly the serial values.
type BlockState struct {
	Movers  []particle.Mover
	NMoved  int64
	NSeg    int64
	NLost   int64
	NPushed int64
	NRuns   int64 // voxel runs swept (the fused path's traffic unit)
	ELost   float64
	done    int // movers finished, the top of Movers
}

// Reset clears the movers and zeroes the counters, keeping capacity.
func (b *BlockState) Reset() {
	b.Movers = b.Movers[:0]
	b.NMoved, b.NSeg, b.NLost, b.NPushed, b.NRuns, b.ELost = 0, 0, 0, 0, 0, 0
	b.done = 0
}

// Kernel advances one species' particles on one rank's domain.
type Kernel struct {
	G   *grid.Grid
	IP  *interp.Table
	Acc *accum.Array

	// Asm pushes every block through the hand-written routine instead
	// of the portable Go one, and batches the mover finish (amd64 only;
	// see ResolveKernel / AsmAvailable). The two are bitwise identical,
	// so the choice is pure performance.
	Asm bool
	// asmLanes is the width Asm pushes at: AsmLanes() from NewKernel,
	// which tests lower to 8 to hold both routines of an AVX-512 host.
	asmLanes int

	// Per-face boundary actions, indexed like field.Face
	// (XLo,XHi,YLo,YHi,ZLo,ZHi).
	Bound [6]Action
	// Out collects migrating particles per face; the domain layer drains
	// it each step. Only moveP appends to it, and only serially (a pool
	// task runs moveP only on movers that cannot migrate; AdvanceP and
	// FinishBlocks both finish movers in descending index order), so
	// these buffers fill in the same deterministic order on every path.
	Out [6][]Outgoing
	// reflux holds per-face re-emission parameters when EnableReflux has
	// switched a face to a thermally refluxing wall.
	reflux [6]*RefluxParams
	// faces has bit f of entry v set when face f of voxel v is a local
	// domain face (moveP's "next cell outside [1, n]"), so the batch
	// routine classifies a crossing without Unvoxel.
	faces   []uint8
	moveCon moveConsts // q and the per-face voxel deltas; wrap is set per finish

	qdt2mc  float32 // (Q/M)·dt/2
	q       float32 // species charge (e units), for deposition
	cdtdx2  float32 // 2·dt/DX: offset displacement per unit velocity
	cdtdy2  float32
	cdtdz2  float32
	mass    float64    // species mass (me units), for energy accounting
	serial  BlockState // reusable state for the serial AdvanceP path
	NMoved  int64      // particles needing move_p (statistics)
	NSeg    int64      // total segments processed
	NLost   int64      // particles absorbed at boundaries
	NPushed int64      // total particles advanced
	NRuns   int64      // total voxel runs swept
	ELost   float64    // kinetic energy removed with absorbed particles

	trafficTaken int64 // TakeTrafficBytes watermark
}

// NewKernel builds a push kernel. q and m are the species charge and
// mass in units of e and me; dt is the time step in code units.
func NewKernel(g *grid.Grid, ip *interp.Table, acc *accum.Array, q, m, dt float64) *Kernel {
	k := &Kernel{
		G: g, IP: ip, Acc: acc,
		qdt2mc:   float32(q / m * dt / 2),
		q:        float32(q),
		mass:     m,
		cdtdx2:   float32(2 * dt / g.DX),
		cdtdy2:   float32(2 * dt / g.DY),
		cdtdz2:   float32(2 * dt / g.DZ),
		asmLanes: AsmLanes(),
		faces:    make([]uint8, g.NV()),
		moveCon:  moveConsts{q: float32(q)},
	}
	// moveP's face arithmetic, precomputed for the batch routine: the
	// voxel deltas through each face, and which faces of each voxel lead
	// outside the local interior.
	sx, sy, _ := g.Strides()
	stride := [3]int{1, sx, sx * sy}
	n := [3]int{g.NX, g.NY, g.NZ}
	for a := range 3 {
		for _, dir := range []int{-1, 1} {
			f := 2*a + (dir+1)/2
			k.moveCon.step[f] = int32(dir * stride[a])
			k.moveCon.wrapd[f] = int32(-dir * (n[a] - 1) * stride[a])
		}
	}
	for v := range k.faces {
		ix, iy, iz := g.Unvoxel(v)
		c := [3]int{ix, iy, iz}
		for f := range 6 {
			if next := c[f/2] + 2*(f%2) - 1; next < 1 || next > n[f/2] {
				k.faces[v] |= 1 << f
			}
		}
	}
	return k
}

// Prealloc pre-sizes the kernel's per-face outgoing buffers so a
// steady-state step performs no allocations. nOut bounds the expected
// emigrants per face; the buffers grow on demand if it is exceeded.
func (k *Kernel) Prealloc(nOut int) {
	for f := range k.Out {
		if cap(k.Out[f]) < nOut {
			k.Out[f] = make([]Outgoing, 0, nOut)
		}
	}
}

// Flops returns the total single-precision flops performed so far under
// the package's counting convention.
func (k *Kernel) Flops() int64 {
	return k.NPushed*FlopsPerPush + k.NSeg*FlopsPerSegment
}

// TrafficBytes returns the kernel's cumulative data-motion estimate
// under the fused-sweep model: per-particle stream traffic plus per-run
// interpolator/accumulator traffic plus per-segment mover traffic.
func (k *Kernel) TrafficBytes() int64 {
	return k.NPushed*BytesPerParticle + k.NRuns*BytesPerRun + k.NSeg*BytesPerSegment
}

// TakeTrafficBytes returns the data motion accrued since the previous
// call (or since construction/ResetStats) and advances the watermark.
func (k *Kernel) TakeTrafficBytes() int64 {
	t := k.TrafficBytes()
	d := t - k.trafficTaken
	if d < 0 { // counters were reset since the last take
		d = t
	}
	k.trafficTaken = t
	return d
}

// ResetStats zeroes the statistics counters.
func (k *Kernel) ResetStats() {
	k.NMoved, k.NSeg, k.NLost, k.NPushed, k.NRuns, k.ELost = 0, 0, 0, 0, 0, 0
	k.trafficTaken = 0
}

// AdoptFrom carries a retired kernel's run-cumulative state into this
// one — the load balancer rebuilds kernels when a rank's tile is
// reshaped, and the statistics must survive the swap — and its face
// actions, refluxing walls included: a reshape keeps every rank's walls
// and remote faces.
func (k *Kernel) AdoptFrom(o *Kernel) {
	k.NMoved, k.NSeg, k.NLost, k.NPushed, k.NRuns, k.ELost =
		o.NMoved, o.NSeg, o.NLost, o.NPushed, o.NRuns, o.ELost
	k.trafficTaken = o.trafficTaken
	k.Bound, k.reflux = o.Bound, o.reflux
}

// MergeStats folds one block's counters into the kernel totals.
func (k *Kernel) MergeStats(bs *BlockState) {
	k.NMoved += bs.NMoved
	k.NSeg += bs.NSeg
	k.NLost += bs.NLost
	k.NPushed += bs.NPushed
	k.NRuns += bs.NRuns
	k.ELost += bs.ELost
}

// ClearOutgoing drops all buffered migrating particles (the domain
// layer calls this after draining them).
func (k *Kernel) ClearOutgoing() {
	for f := range k.Out {
		k.Out[f] = k.Out[f][:0]
	}
}

// AdvanceP advances every particle in buf by one step: half E kick,
// Boris rotation, half E kick, move with charge-conserving current
// deposition into the accumulator. Particles crossing cell faces are
// finished by the move machinery, honoring the per-face boundary
// actions. The interpolator table must be freshly loaded.
func (k *Kernel) AdvanceP(buf *particle.Buffer) {
	bs := &k.serial
	bs.Reset()
	k.advanceRange(buf, 0, buf.N(), k.Acc, bs)
	k.finishMovers(buf, bs, k.Acc, false)
	k.MergeStats(bs)
}

// AdvanceBlock pushes particles [lo, hi) of buf — one pipeline block —
// scattering in-cell current into acc and recording face-crossing
// particles in bs.Movers, then finishes its movers from the top down
// and stops at the first that does not stay local, recording how many
// it finished in bs. It never reorders the buffer or runs a face action
// other than Wrap, reads only shared immutable state (interpolators,
// grid, face table, Bound), and writes only lanes lo..hi-1, acc and bs,
// so disjoint ranges with private acc/bs are safe to run concurrently
// (lanes are distinct words even when two ranges share a
// particle.Block). Call FinishBlocks afterwards to complete the
// remaining movers.
func (k *Kernel) AdvanceBlock(buf *particle.Buffer, lo, hi int, acc *accum.Array, bs *BlockState) {
	k.advanceRange(buf, lo, hi, acc, bs)
	k.finishMovers(buf, bs, acc, true)
}

// FinishBlocks completes the movers AdvanceBlock left: blocks are
// processed last to first and each block's movers last to first,
// starting below those its task finished, i.e. globally descending
// particle index — the order the serial AdvanceP finishes them in
// (finishMovers), so swap-removals stay safe and the resulting particle
// state is bitwise identical to the serial path (see the package
// comment). Each block's segment currents deposit into its own
// accumulator (accs[b]) and its counters land in blocks[b] before being
// merged into the kernel totals.
func (k *Kernel) FinishBlocks(buf *particle.Buffer, blocks []*BlockState, accs []*accum.Array) {
	for b := len(blocks) - 1; b >= 0; b-- {
		k.finishMovers(buf, blocks[b], accs[b], false)
	}
	for _, bs := range blocks {
		k.MergeStats(bs)
	}
}

// finishMovers completes bs's movers below the bs.done already
// finished, in descending index order, depositing into a. With
// Kernel.Asm it takes them from the top down, batchLanes at a time: one
// batch call finishes the batch's fast movers from the top down and
// stops at the first slow one, which runs moveP; the next call starts
// below it. Without, every mover runs moveP. In a pool task
// (task set) only movers that stay local (see local) run moveP: the
// loop ends at the first that may not, and bs.done records where the
// serial call resumes; that call counts bs's movers.
//
// Batching inside the serial walk changes nothing: a call reads its
// batch before it writes, RemoveSwap(i) writes only slot i, and every
// mover j below a slow mover i has j < i, so each call sees every
// mover's own pre-step lanes. A fast mover's adds are exactly the terms
// moveP's scatters would add, none of them NaN, in moveP's order —
// segment by segment, mover by descending index — so every accumulator
// slot's addition chain is moveP's and the state is bitwise identical.
func (k *Kernel) finishMovers(buf *particle.Buffer, bs *BlockState, a *accum.Array, task bool) {
	con := k.batchConsts()
	tally := moveTally{lo: math.MaxInt32, hi: -1}
	top := len(bs.Movers) - bs.done
	for top > 0 {
		if k.Asm {
			n := k.moveBatch(buf.Blk, bs.Movers[:top], a.A, &con, &tally)
			top -= n
			if n == k.batchLanes() || top == 0 {
				continue // no slow mover yet
			}
		}
		mv := &bs.Movers[top-1]
		if task && !k.local(buf, mv, con.wrap) {
			break
		}
		top--
		k.moveP(buf, int(mv.Idx), mv.DispX, mv.DispY, mv.DispZ, a, bs)
	}
	bs.done = len(bs.Movers) - top
	if !task {
		bs.NMoved += int64(len(bs.Movers))
	}
	bs.NSeg += tally.nseg
	if tally.hi >= 0 {
		a.Touch(int(tally.lo))
		a.Touch(int(tally.hi))
	}
}

// batchLanes is how many movers one batch call takes: 16
// (moveBatch16AVX512) when k pushes wider than a block, as on an
// AVX-512 host, else 8 (moveBatchAVX2).
func (k *Kernel) batchLanes() int {
	if k.asmLanes > particle.Lanes {
		return 2 * particle.Lanes
	}
	return particle.Lanes
}

// moveBatch runs the batch routine of k's width over the top batch of
// mv, depositing into ac.
func (k *Kernel) moveBatch(blk []particle.Block, mv []particle.Mover, ac []accum.Cell, con *moveConsts, tally *moveTally) int {
	if k.batchLanes() > particle.Lanes {
		return moveBatch16AVX512(blk, mv, k.faces, ac, con, tally)
	}
	return moveBatchAVX2(blk, mv, k.faces, ac, con, tally)
}

// local reports whether moveP finishes mv writing only its lane, the
// accumulator and the BlockState, so a pool task may run it: no
// displacement component exceeds half a cell (1 in offset units; NaN
// does), so the walk crosses at most one face per axis, toward that
// component's sign and at the starting voxel's coordinate on that axis,
// and each such face is interior or Wrap (wrap is batchConsts' mask).
// The walk then has at most four segments and never reaches Absorb,
// Migrate, Reflect, reflux or the maxSeg backstop.
func (k *Kernel) local(buf *particle.Buffer, mv *particle.Mover, wrap uint32) bool {
	i := int(mv.Idx)
	stop := uint32(k.faces[buf.Blk[i>>particle.LaneShift].Voxel[i&particle.LaneMask]]) &^ wrap
	for a, d := range [3]float32{mv.DispX, mv.DispY, mv.DispZ} {
		if !(d >= -1 && d <= 1) || d < 0 && stop&(1<<(2*a)) != 0 || d > 0 && stop&(2<<(2*a)) != 0 {
			return false
		}
	}
	return true
}

// batchConsts returns the batch routine's constants under the current
// Bound, which callers may change at any time.
func (k *Kernel) batchConsts() moveConsts {
	con := k.moveCon
	for f, act := range k.Bound {
		if act == Wrap {
			con.wrap |= 1 << f
		}
	}
	return con
}

// oneBits is math.Float32bits(1.0); for finite floats |x| > 1 exactly
// when the sign-cleared bit pattern exceeds it, and NaN patterns always
// do — matching the oracle's negated in-cell compare, which also sends
// NaN offsets to moveP (where the absorb backstop removes them).
const oneBits = 0x3f800000

// advanceRange is the momentum-update + in-cell-deposition sweep over
// particles [lo, hi) — the only one; see the package comment for the
// block / run decomposition: each call takes the width's worth of
// lanes — one block, or four at 32 lanes, the last call of a range
// masking off the lanes past hi. Face-crossing particles keep their
// pre-step offsets and are appended to bs.Movers in ascending index
// order for the caller to finish. The accumulator window grows once per
// range, to the least and greatest run voxel the routine saw.
//
// A run adds into its voxel's accumulator cell as loaded (not from
// zero), and the cell is back in memory whenever the voxel changes and
// at the end of every call, so each slot's addition chain is exactly
// that of a per-particle read-modify-write kernel and the result is
// bitwise identical to the oracle for any particle order — sorted
// buffers merely make the runs long enough to pay off.
func (k *Kernel) advanceRange(buf *particle.Buffer, lo, hi int, a *accum.Array, bs *BlockState) {
	blk := buf.Blk
	ip := k.IP.C
	ac := a.A
	con := laneConsts{qdt2mc: k.qdt2mc, q: k.q, cdx: k.cdtdx2, cdy: k.cdtdy2, cdz: k.cdtdz2}
	run := laneRun{v: -1, lo: math.MaxInt32, hi: -1}
	var out laneVecs
	bs.NPushed += int64(hi - lo)
	width := particle.Lanes // lanes per routine call
	if k.Asm {
		width = max(width, k.asmLanes)
	}

	for i := lo; i < hi; {
		base := i &^ particle.LaneMask
		l1 := min(width, hi-base)
		b := &blk[base>>particle.LaneShift]

		// One routine call pushes lanes [i-base, l1) of the block (the
		// four from b on, at 32 lanes), each against its own voxel's
		// interpolator, and folds their in-cell current into the run; the
		// crossers come back as bits.
		var cross uint64
		switch {
		case width > particle.Lanes:
			cross = advanceBlock32AVX512(b, ip, ac, &run, &con, &out, i-base, l1)
		case k.Asm:
			cross = advanceBlockAVX2(b, ip, ac, &run, &con, &out, i-base, l1)
		default:
			cross = advanceBlockGo(b, ip, ac, &run, &con, &out, i-base, l1)
		}
		if cross == badVoxel {
			panic(fmt.Sprintf("push: a voxel of particles [%d, %d) is outside the %d-voxel tables", i, base+l1, min(len(ip), len(ac))))
		}
		for ; cross != 0; cross &= cross - 1 {
			l := bits.TrailingZeros64(cross) & (4*particle.Lanes - 1)
			bs.Movers = append(bs.Movers, particle.Mover{
				DispX: out.ddx[l], DispY: out.ddy[l], DispZ: out.ddz[l], Idx: int32(base + l),
			})
		}
		i = base + l1
	}
	bs.NRuns += run.n
	if run.v >= 0 {
		a.Touch(int(run.lo))
		a.Touch(int(run.hi))
	}
}

// scatter deposits the charge-conserving current of one in-cell segment
// into cell v of accumulator a, growing a's touched window.
func (k *Kernel) scatter(a *accum.Array, v int, w, dx, dy, dz, ddx, ddy, ddz float32) {
	k.scatterCell(&a.A[v], w, dx, dy, dz, ddx, ddy, ddz)
	a.Touch(v)
}

// scatterCell deposits the charge-conserving current of one in-cell
// segment with half-displacements (hx,hy,hz) = (ddx,ddy,ddz)/2 starting
// from offsets (dx,dy,dz), into the accumulator cell c.
func (k *Kernel) scatterCell(c *accum.Cell, w, dx, dy, dz, ddx, ddy, ddz float32) {
	qw := k.q * w
	hx, hy, hz := 0.5*ddx, 0.5*ddy, 0.5*ddz
	mx, my, mz := dx+hx, dy+hy, dz+hz // midpoint offsets
	v5 := qw * hx * hy * hz * (1.0 / 3.0)

	qh := qw * hx
	c.JX[0] += qh*(1-my)*(1-mz) + v5
	c.JX[1] += qh*(1+my)*(1-mz) - v5
	c.JX[2] += qh*(1-my)*(1+mz) - v5
	c.JX[3] += qh*(1+my)*(1+mz) + v5

	qh = qw * hy
	c.JY[0] += qh*(1-mz)*(1-mx) + v5
	c.JY[1] += qh*(1+mz)*(1-mx) - v5
	c.JY[2] += qh*(1-mz)*(1+mx) - v5
	c.JY[3] += qh*(1+mz)*(1+mx) + v5

	qh = qw * hz
	c.JZ[0] += qh*(1-mx)*(1-my) + v5
	c.JZ[1] += qh*(1+mx)*(1-my) - v5
	c.JZ[2] += qh*(1-mx)*(1+my) - v5
	c.JZ[3] += qh*(1+mx)*(1+my) + v5
}

// maxSeg bounds the segments of one particle's move in one step.
const maxSeg = 16

// moveP finishes a boundary-crossing particle: it splits the remaining
// displacement at each cell face, deposits per-segment current into a,
// and applies the face action when the particle leaves the local
// interior. The particle is gathered from its lane into a register copy
// for the segment walk and scattered back at the end; it may instead be
// removed from buf (Absorb/Migrate). Statistics land in bs.
func (k *Kernel) moveP(buf *particle.Buffer, i int, ddx, ddy, ddz float32, a *accum.Array, bs *BlockState) {
	g := k.G
	sx, sy, _ := g.Strides()
	strides := [3]int{1, sx, sx * sy}
	n := [3]int{g.NX, g.NY, g.NZ}
	pt := buf.At(i)

	for seg := 0; seg < maxSeg; seg++ {
		bs.NSeg++
		// Fraction of the remaining displacement to the first face.
		s := float32(1)
		axis := -1
		dir := 0
		if f, d := faceFraction(pt.Dx, ddx); f < s {
			s, axis, dir = f, 0, d
		}
		if f, d := faceFraction(pt.Dy, ddy); f < s {
			s, axis, dir = f, 1, d
		}
		if f, d := faceFraction(pt.Dz, ddz); f < s {
			s, axis, dir = f, 2, d
		}

		segx, segy, segz := s*ddx, s*ddy, s*ddz
		k.scatter(a, int(pt.Voxel), pt.W, pt.Dx, pt.Dy, pt.Dz, segx, segy, segz)
		pt.Dx += segx
		pt.Dy += segy
		pt.Dz += segz
		ddx -= segx
		ddy -= segy
		ddz -= segz

		if axis < 0 {
			buf.Set(i, pt)
			return // whole displacement consumed inside the cell
		}

		// Snap exactly onto the crossed face and act on it.
		setOffset(&pt, axis, float32(dir))
		ix, iy, iz := g.Unvoxel(int(pt.Voxel))
		coord := [3]int{ix, iy, iz}
		next := coord[axis] + dir
		rem := [3]float32{ddx, ddy, ddz}

		switch {
		case next >= 1 && next <= n[axis]:
			// Interior crossing: enter the neighbor cell from its far side.
			pt.Voxel += int32(dir * strides[axis])
			setOffset(&pt, axis, float32(-dir))
		default:
			face := 2*axis + (dir+1)/2
			switch k.Bound[face] {
			case Wrap:
				pt.Voxel += int32(-dir * (n[axis] - 1) * strides[axis])
				setOffset(&pt, axis, float32(-dir))
			case Reflect:
				flipU(&pt, axis)
				rem[axis] = -rem[axis]
			case refluxAction:
				// Thermal wall: re-emit at the wall with flux-weighted
				// inward momentum; the remainder of this step is spent.
				pt.Ux, pt.Uy, pt.Uz = drawReflux(k.reflux[face], axis, float32(-dir))
				rem = [3]float32{}
			case Absorb:
				bs.NLost++
				bs.ELost += k.kinetic(&pt)
				buf.RemoveSwap(i)
				return
			case Migrate:
				// Hand the particle over already flipped onto the entering
				// side; the receiver only remaps Voxel.
				setOffset(&pt, axis, float32(-dir))
				out := Outgoing{P: pt, DispX: rem[0], DispY: rem[1], DispZ: rem[2]}
				k.Out[face] = append(k.Out[face], out)
				buf.RemoveSwap(i)
				return
			}
		}
		ddx, ddy, ddz = rem[0], rem[1], rem[2]
		if ddx == 0 && ddy == 0 && ddz == 0 {
			buf.Set(i, pt)
			return
		}
	}
	// A particle needing more than maxSeg segments indicates dt far above
	// CFL or corrupted state; absorb it rather than corrupt memory.
	bs.NLost++
	bs.ELost += k.kinetic(&pt)
	buf.RemoveSwap(i)
}

// kinetic returns w·m·(γ−1) of one particle in double precision.
func (k *Kernel) kinetic(pt *particle.Particle) float64 {
	u2 := float64(pt.Ux)*float64(pt.Ux) + float64(pt.Uy)*float64(pt.Uy) + float64(pt.Uz)*float64(pt.Uz)
	g := math.Sqrt(1 + u2)
	return float64(pt.W) * k.mass * u2 / (g + 1)
}

// FinishMove continues a migrated-in particle: the caller has already
// remapped Voxel to the local entry cell. Only the move (deposition)
// remains; the momentum kick happened on the sending rank. Deposition
// goes to the kernel's own accumulator, which on the pipelined path
// already holds the reduced block sum by exchange time.
func (k *Kernel) FinishMove(buf *particle.Buffer, in Outgoing) {
	buf.Append(in.P)
	i := buf.N() - 1
	if in.DispX != 0 || in.DispY != 0 || in.DispZ != 0 {
		var bs BlockState
		k.moveP(buf, i, in.DispX, in.DispY, in.DispZ, k.Acc, &bs)
		k.MergeStats(&bs)
	}
}

// faceFraction returns the fraction of displacement dd that brings an
// offset d to ±1, and the face direction, or (+inf-ish, 0) when the face
// is not reached.
func faceFraction(d, dd float32) (float32, int) {
	switch {
	case dd > 0:
		if f := (1 - d) / dd; f < 1 {
			return max32(f, 0), +1
		}
	case dd < 0:
		if f := (-1 - d) / dd; f < 1 {
			return max32(f, 0), -1
		}
	}
	return 2, 0
}

func max32(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

func setOffset(p *particle.Particle, axis int, v float32) {
	switch axis {
	case 0:
		p.Dx = v
	case 1:
		p.Dy = v
	default:
		p.Dz = v
	}
}

func flipU(p *particle.Particle, axis int) {
	switch axis {
	case 0:
		p.Ux = -p.Ux
	case 1:
		p.Uy = -p.Uy
	default:
		p.Uz = -p.Uz
	}
}

// rsqrt is 1/√x with the square root rounded to float32 before the
// divide: the compiler recognizes float32(math.Sqrt(float64(x))) and
// emits a single-precision hardware sqrt, so the whole thing is one
// SQRTSS + DIVSS — roughly half the divider latency and throughput cost
// of the double-precision pair. advanceBlockGo and the oracle share this
// helper (VSQRTPS + VDIVPS in the assembly), so they stay bitwise
// identical to each other.
func rsqrt(x float32) float32 {
	return 1 / float32(math.Sqrt(float64(x)))
}
