package push

import (
	"math"

	"govpic/internal/accum"
	"govpic/internal/interp"
	"govpic/internal/particle"
)

// laneConsts hands the kernel's per-species scalars to a block routine.
// Field offsets are hardcoded in push_avx2_amd64.s.
type laneConsts struct {
	qdt2mc float32 // +0
	q      float32 // +4
	cdx    float32 // +8
	cdy    float32 // +12
	cdz    float32 // +16
}

// laneRun is the voxel run a block routine carries from one block to the
// next within a range: the run's voxel (-1 before the first lane), the
// runs started so far, and the least and greatest run voxel — the
// touched window the driver reports to the accumulator. The run's cell
// itself lives in the accumulator between blocks. Offsets are hardcoded
// in push_avx2_amd64.s.
type laneRun struct {
	n      int64 // +0
	v      int32 // +8
	lo, hi int32 // +12, +16
}

// laneVecs is a block routine's per-call output: the lane displacements
// the driver copies into mover records, 32 lanes so the quad routine's
// fit. The assembly writes each routine's width in full, so lanes
// outside [l0, l1) hold garbage; offsets are hardcoded in the .s files.
type laneVecs struct {
	ddx, ddy, ddz [4 * particle.Lanes]float32
}

// badVoxel is what the assembly block routines return instead of
// crosser bits when a pushed lane's voxel lies outside the interpolator
// or accumulator table (advanceBlockGo panics on its index check
// instead). Crosser bits fill at most the low 32 bits, so no set of
// crossers, all 32 lanes included, reads as badVoxel.
const badVoxel = ^uint64(0)

// advanceBlockGo is the portable implementation of the block contract
// (advanceBlockAVX2 is the other): push lanes [l0, l1) of b, lane l
// against its own interpolator ip[b.Voxel[l]], store new momenta and
// non-crossing offsets in place, fill out with the displacements, fold
// the in-cell lanes' current into the accumulator run by run in
// ascending lane order (counting runs and the touched window in run),
// and return the crosser bits (exact, no garbage outside the range). A
// voxel outside ip or ac panics on Go's index check; ip's is taken
// before any particle is written. The push runs as three staged lane loops — field gather /
// both kicks and the Boris rotation / final 1/γ, displacement and a
// branch-free integer crosser mask — so several lanes' rsqrt chains are
// in flight at once instead of one long per-particle dependency chain;
// per lane the operations and their order are those of the per-particle
// oracle.
func advanceBlockGo(b *particle.Block, ip []interp.Coeffs, ac []accum.Cell, run *laneRun, con *laneConsts, out *laneVecs, l0, l1 int) uint64 {
	qdt2mc := con.qdt2mc
	if l1 > particle.Lanes {
		l1 = particle.Lanes // unreachable; bounds the lane loops for BCE
	}

	var haxA, hayA, hazA [particle.Lanes]float32
	var cbxA, cbyA, cbzA [particle.Lanes]float32

	for l := l0; l < l1; l++ {
		dx, dy, dz := b.Dx[l], b.Dy[l], b.Dz[l]
		c := &ip[b.Voxel[l]]

		haxA[l] = qdt2mc * (c.Ex0 + dy*c.DExDy + dz*(c.DExDz+dy*c.D2ExDyDz))
		hayA[l] = qdt2mc * (c.Ey0 + dz*c.DEyDz + dx*(c.DEyDx+dz*c.D2EyDzDx))
		hazA[l] = qdt2mc * (c.Ez0 + dx*c.DEzDx + dy*(c.DEzDy+dx*c.D2EzDxDy))

		cbxA[l] = c.CBx0 + dx*c.DCBxDx
		cbyA[l] = c.CBy0 + dy*c.DCByDy
		cbzA[l] = c.CBz0 + dz*c.DCBzDz
	}

	for l := l0; l < l1; l++ {
		hax, hay, haz := haxA[l], hayA[l], hazA[l]
		ux := b.Ux[l] + hax
		uy := b.Uy[l] + hay
		uz := b.Uz[l] + haz

		gi := rsqrt(1 + (ux*ux + uy*uy + uz*uz))
		f0 := qdt2mc * gi
		tx, ty, tz := f0*cbxA[l], f0*cbyA[l], f0*cbzA[l]
		t2 := tx*tx + ty*ty + tz*tz
		s := 2 / (1 + t2)
		wx := ux + (uy*tz - uz*ty)
		wy := uy + (uz*tx - ux*tz)
		wz := uz + (ux*ty - uy*tx)
		ux += s * (wy*tz - wz*ty)
		uy += s * (wz*tx - wx*tz)
		uz += s * (wx*ty - wy*tx)

		b.Ux[l] = ux + hax
		b.Uy[l] = uy + hay
		b.Uz[l] = uz + haz
	}

	var cross uint64
	for l := l0; l < l1; l++ {
		ux, uy, uz := b.Ux[l], b.Uy[l], b.Uz[l]
		gi := rsqrt(1 + (ux*ux + uy*uy + uz*uz))

		ddx := ux * gi * con.cdx
		ddy := uy * gi * con.cdy
		ddz := uz * gi * con.cdz
		nx := b.Dx[l] + ddx
		ny := b.Dy[l] + ddy
		nz := b.Dz[l] + ddz
		out.ddx[l], out.ddy[l], out.ddz[l] = ddx, ddy, ddz

		ax := math.Float32bits(nx) &^ (1 << 31)
		ay := math.Float32bits(ny) &^ (1 << 31)
		az := math.Float32bits(nz) &^ (1 << 31)
		o := ((oneBits - ax) | (oneBits - ay) | (oneBits - az)) >> 31
		cross |= uint64(o) << uint(l)
	}

	// The run: consecutive lanes of one voxel, continued across blocks.
	// Each in-cell lane's current joins its voxel's cell in ascending lane
	// order — the oracle's addition chain for every slot.
	rv, rn, rlo, rhi := run.v, run.n, run.lo, run.hi
	for l := l0; l < l1; l++ {
		v := b.Voxel[l]
		if v != rv {
			rv = v
			rn++
			rlo = min(rlo, v)
			rhi = max(rhi, v)
		}
		if cross&(1<<uint(l)) != 0 {
			continue
		}
		dx, dy, dz := b.Dx[l], b.Dy[l], b.Dz[l]
		qw := con.q * b.W[l]
		hx, hy, hz := 0.5*out.ddx[l], 0.5*out.ddy[l], 0.5*out.ddz[l]
		mx, my, mz := dx+hx, dy+hy, dz+hz
		v5 := qw * hx * hy * hz * (1.0 / 3.0)
		c := &ac[v]

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

		b.Dx[l], b.Dy[l], b.Dz[l] = dx+out.ddx[l], dy+out.ddy[l], dz+out.ddz[l]
	}
	run.v, run.n, run.lo, run.hi = rv, rn, rlo, rhi
	return cross
}

// moveConsts hands the kernel's mover scalars to a batch routine. step
// and wrapd are indexed by face (field.Face order; entries 6 and 7 are
// zero, the "no face" code). Offsets are hardcoded in
// push_avx2_amd64.s and move_avx512_amd64.s.
type moveConsts struct {
	q     float32               // +0: species charge
	wrap  uint32                // +4: bit f set when Bound[f] is Wrap
	step  [particle.Lanes]int32 // +8: voxel delta through interior face f
	wrapd [particle.Lanes]int32 // +40: voxel delta through face f when it wraps
}

// moveTally is what a batch routine reports besides its count: the
// segments its finished movers deposited and the least and greatest
// voxel they deposited into, the window the driver touches once per
// finish. Offsets are hardcoded in push_avx2_amd64.s and
// move_avx512_amd64.s.
type moveTally struct {
	nseg   int64 // +0
	lo, hi int32 // +8, +12
}
