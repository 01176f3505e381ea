package push

import (
	"math"

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

// laneCoeffs is interp.Coeffs transposed to one interpolator per lane:
// field k of Coeffs (byte offset 4k) becomes the 8-lane row at byte
// offset 32k, so the assembly loads each coefficient as one vector. The
// driver fills only the lanes it pushes; the others keep an earlier
// block's (finite) coefficients, whose results are never stored.
type laneCoeffs struct {
	Ex0, DExDy, DExDz, D2ExDyDz [particle.Lanes]float32
	Ey0, DEyDz, DEyDx, D2EyDzDx [particle.Lanes]float32
	Ez0, DEzDx, DEzDy, D2EzDxDy [particle.Lanes]float32
	CBx0, DCBxDx                [particle.Lanes]float32
	CBy0, DCByDy                [particle.Lanes]float32
	CBz0, DCBzDz                [particle.Lanes]float32
}

// set loads c into lane l.
func (lc *laneCoeffs) set(l int, c *interp.Coeffs) {
	lc.Ex0[l], lc.DExDy[l], lc.DExDz[l], lc.D2ExDyDz[l] = c.Ex0, c.DExDy, c.DExDz, c.D2ExDyDz
	lc.Ey0[l], lc.DEyDz[l], lc.DEyDx[l], lc.D2EyDzDx[l] = c.Ey0, c.DEyDz, c.DEyDx, c.D2EyDzDx
	lc.Ez0[l], lc.DEzDx[l], lc.DEzDy[l], lc.D2EzDxDy[l] = c.Ez0, c.DEzDx, c.DEzDy, c.D2EzDxDy
	lc.CBx0[l], lc.DCBxDx[l] = c.CBx0, c.DCBxDx
	lc.CBy0[l], lc.DCByDy[l] = c.CBy0, c.DCByDy
	lc.CBz0[l], lc.DCBzDz[l] = c.CBz0, c.DCBzDz
}

// laneVecs is a block routine's per-block output: the lane displacements
// (for mover records) and the twelve current contributions per lane
// (accumulated by the driver in ascending lane order, preserving the
// oracle's addition chains). The assembly writes every 32-byte slot
// full width, so lanes outside [l0, l1) hold garbage; offsets are
// hardcoded in push_avx2_amd64.s.
type laneVecs struct {
	ddx, ddy, ddz [particle.Lanes]float32
	c             [12][particle.Lanes]float32 // JX0..3, JY0..3, JZ0..3
}

// advanceBlockGo is the portable implementation of the block contract
// (advanceBlockAVX2 is the other): push lanes [l0, l1) of b, lane l
// against its own interpolator in lc, store new momenta and
// non-crossing offsets in place, fill out.dd and the in-cell lanes'
// current contributions out.c, and return the crosser bits (exact, no
// garbage outside the range). The work runs as three staged lane loops
// — field gather / both kicks and the Boris rotation / final 1/γ,
// displacement and a branch-free integer crosser mask — so several
// lanes' rsqrt chains are in flight at once instead of one long
// per-particle dependency chain; per lane the operations and their
// order are those of the per-particle oracle.
func advanceBlockGo(b *particle.Block, lc *laneCoeffs, con *laneConsts, out *laneVecs, l0, l1 int) uint32 {
	qdt2mc := con.qdt2mc
	if l1 > particle.Lanes {
		l1 = particle.Lanes // unreachable; bounds the lane loops for BCE
	}

	var haxA, hayA, hazA [particle.Lanes]float32
	var cbxA, cbyA, cbzA [particle.Lanes]float32

	for l := l0; l < l1; l++ {
		dx, dy, dz := b.Dx[l], b.Dy[l], b.Dz[l]

		haxA[l] = qdt2mc * (lc.Ex0[l] + dy*lc.DExDy[l] + dz*(lc.DExDz[l]+dy*lc.D2ExDyDz[l]))
		hayA[l] = qdt2mc * (lc.Ey0[l] + dz*lc.DEyDz[l] + dx*(lc.DEyDx[l]+dz*lc.D2EyDzDx[l]))
		hazA[l] = qdt2mc * (lc.Ez0[l] + dx*lc.DEzDx[l] + dy*(lc.DEzDy[l]+dx*lc.D2EzDxDy[l]))

		cbxA[l] = lc.CBx0[l] + dx*lc.DCBxDx[l]
		cbyA[l] = lc.CBy0[l] + dy*lc.DCByDy[l]
		cbzA[l] = lc.CBz0[l] + dz*lc.DCBzDz[l]
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

	var cross uint32
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
		cross |= o << uint(l)
	}

	for l := l0; l < l1; l++ {
		if cross&(1<<uint(l)) != 0 {
			continue
		}
		dx, dy, dz := b.Dx[l], b.Dy[l], b.Dz[l]
		qw := con.q * b.W[l]
		hx, hy, hz := 0.5*out.ddx[l], 0.5*out.ddy[l], 0.5*out.ddz[l]
		mx, my, mz := dx+hx, dy+hy, dz+hz
		v5 := qw * hx * hy * hz * (1.0 / 3.0)

		qh := qw * hx
		out.c[0][l] = qh*(1-my)*(1-mz) + v5
		out.c[1][l] = qh*(1+my)*(1-mz) - v5
		out.c[2][l] = qh*(1-my)*(1+mz) - v5
		out.c[3][l] = qh*(1+my)*(1+mz) + v5

		qh = qw * hy
		out.c[4][l] = qh*(1-mz)*(1-mx) + v5
		out.c[5][l] = qh*(1+mz)*(1-mx) - v5
		out.c[6][l] = qh*(1-mz)*(1+mx) - v5
		out.c[7][l] = qh*(1+mz)*(1+mx) + v5

		qh = qw * hz
		out.c[8][l] = qh*(1-mx)*(1-my) + v5
		out.c[9][l] = qh*(1+mx)*(1-my) - v5
		out.c[10][l] = qh*(1-mx)*(1+my) - v5
		out.c[11][l] = qh*(1+mx)*(1+my) + v5

		b.Dx[l], b.Dy[l], b.Dz[l] = dx+out.ddx[l], dy+out.ddy[l], dz+out.ddz[l]
	}
	return cross
}
