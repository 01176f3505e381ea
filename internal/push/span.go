package push

import (
	"math"

	"govpic/internal/interp"
	"govpic/internal/particle"
)

// laneConsts hands the kernel's per-species scalars to a span routine.
// Field offsets are hardcoded in push_avx2_amd64.s.
type laneConsts struct {
	qdt2mc float32 // +0
	q      float32 // +4
	cdx    float32 // +8
	cdy    float32 // +12
	cdz    float32 // +16
}

// laneVecs is a span routine's per-span output: the lane displacements
// (for mover records) and the twelve current contributions per lane
// (accumulated by the driver in ascending lane order, preserving the
// scalar step's addition chains). The assembly writes every 32-byte
// slot full width, so lanes outside the span hold garbage; offsets are
// hardcoded in push_avx2_amd64.s.
type laneVecs struct {
	ddx, ddy, ddz [particle.Lanes]float32
	c             [12][particle.Lanes]float32 // JX0..3, JY0..3, JZ0..3
}

// spanMin is the narrowest voxel span the driver hands to a span
// routine; narrower spans take the driver's scalar step. A routine call
// costs one sqrt/divide chain and a 480-byte laneVecs round trip whether
// it covers 1 lane or 8, so on a disordered buffer — mostly 1–3-lane
// spans — the scalar step is the faster shape, while a sorted buffer's
// spans are almost all 8 wide; 4 is half a block (EXPERIMENTS.md S25).
// All three shapes are bitwise interchangeable, so the value only moves
// speed. A var, not a const, solely so the parity tests can pin it to 1
// (every span through a routine) and particle.Lanes+1 (none).
var spanMin = 4

// advanceSpanGo is the portable implementation of the span contract
// (advanceSpanAVX2 is the other): push lanes [s0, s1) of b against cc,
// store new momenta and non-crossing offsets in place, fill out.dd and
// the in-cell lanes' current contributions out.c, and return the span's
// crosser bits (exact, no garbage outside the span). The work runs as
// three staged lane loops — field gather / both kicks and the Boris
// rotation / final 1/γ, displacement and a branch-free integer crosser
// mask — so several lanes' rsqrt chains are in flight at once instead of
// one long per-particle dependency chain; per lane the operations and
// their order are those of the driver's scalar step.
func advanceSpanGo(b *particle.Block, cc *interp.Coeffs, con *laneConsts, out *laneVecs, s0, s1 int) uint32 {
	qdt2mc := con.qdt2mc
	if s1 > particle.Lanes {
		s1 = particle.Lanes // unreachable; bounds the lane loops for BCE
	}

	var haxA, hayA, hazA [particle.Lanes]float32
	var cbxA, cbyA, cbzA [particle.Lanes]float32

	for l := s0; l < s1; l++ {
		dx, dy, dz := b.Dx[l], b.Dy[l], b.Dz[l]

		haxA[l] = qdt2mc * (cc.Ex0 + dy*cc.DExDy + dz*(cc.DExDz+dy*cc.D2ExDyDz))
		hayA[l] = qdt2mc * (cc.Ey0 + dz*cc.DEyDz + dx*(cc.DEyDx+dz*cc.D2EyDzDx))
		hazA[l] = qdt2mc * (cc.Ez0 + dx*cc.DEzDx + dy*(cc.DEzDy+dx*cc.D2EzDxDy))

		cbxA[l] = cc.CBx0 + dx*cc.DCBxDx
		cbyA[l] = cc.CBy0 + dy*cc.DCByDy
		cbzA[l] = cc.CBz0 + dz*cc.DCBzDz
	}

	for l := s0; l < s1; l++ {
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
	for l := s0; l < s1; l++ {
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

	for l := s0; l < s1; l++ {
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
