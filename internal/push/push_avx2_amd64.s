//go:build !purego

// AVX2 block routine for the AoSoA particle push: the three staged lane
// loops and the contribution stage of advanceBlockGo fused into one
// straight-line vector routine over the lanes [l0, l1) of a single
// 256-byte particle.Block. The 8 lanes of the block are the 8 float32
// lanes of a YMM register, so each "lane loop" of the Go routine
// collapses into a handful of vector instructions, and each lane's own
// interpolator arrives as one row of the transposed laneCoeffs, so
// whichever voxels the lanes sit in every coefficient is one VMOVUPS.
//
// Bit-exactness contract (see DESIGN §8.2 and the parity tests): every
// lane is arithmetically independent, every instruction used is IEEE
// correctly rounded per lane (VADDPS/VSUBPS/VMULPS/VDIVPS/VSQRTPS),
// FMA is deliberately not used (gc emits no FMA contraction for the Go
// kernel on amd64, so fusing here would change roundings), and the
// association of every expression mirrors the Go source exactly.
// Go's rsqrt — float32 SQRTSS then DIVSS — becomes VSQRTPS + VDIVPS,
// the same two correctly-rounded operations lane-wise. Loads are full
// 32-byte vectors (lanes outside [l0, l1) compute from stale finite
// coefficients harmlessly); stores are masked so lanes outside the
// range, and the pre-step offsets of crossing lanes, are never written.
// The caller performs the ordered scalar accumulation of the per-lane
// current contributions, so every accumulator slot's addition chain
// stays exactly the per-particle oracle's.
//
// Register plan (stages; Y12 = broadcast qdt2mc through stage B):
//   A gather:  Y0-2 dx,dy,dz   -> Y3-5 hax,hay,haz  Y6-8 cbx,cby,cbz
//   B boris:   Y9-11 ux,uy,uz updated, masked-stored to Ux,Uy,Uz
//   C move:    Y3-5 ddx,ddy,ddz  Y0-2 dx,dy,dz  Y6-8 nx,ny,nz
//              Y9 crosser vector -> AX bitmask, Y10 offset store mask
//   D scatter: Y0-2 mx,my,mz  Y3-5 hx,hy,hz  Y11 qw  Y12 v5
//              Y13 1.0  Y14 qh  Y9/Y15 temps -> out.c[0..11]

#include "textflag.h"

// Block field offsets (asserted in push_avx2_amd64.go):
#define BDX 0
#define BDY 32
#define BDZ 64
#define BUX 128
#define BUY 160
#define BUZ 192
#define BW 224

// laneVecs offsets:
#define ODDX 0
#define ODDY 32
#define ODDZ 64
#define OC 96

DATA one<>+0(SB)/4, $0x3f800000 // float32(1); also the crosser oneBits
GLOBL one<>(SB), RODATA, $4

DATA two<>+0(SB)/4, $0x40000000 // float32(2)
GLOBL two<>(SB), RODATA, $4

DATA half<>+0(SB)/4, $0x3f000000 // float32(0.5)
GLOBL half<>(SB), RODATA, $4

DATA third<>+0(SB)/4, $0x3eaaaaab // float32(1.0/3.0)
GLOBL third<>(SB), RODATA, $4

DATA absmask<>+0(SB)/4, $0x7fffffff
GLOBL absmask<>(SB), RODATA, $4

// lanemask<> row k (k = 0..8) has the first k dword lanes set; the
// lane range [l0, l1) mask is row[l1] &^ row[l0].
DATA lanemask<>+0(SB)/8, $0x0000000000000000
DATA lanemask<>+8(SB)/8, $0x0000000000000000
DATA lanemask<>+16(SB)/8, $0x0000000000000000
DATA lanemask<>+24(SB)/8, $0x0000000000000000
DATA lanemask<>+32(SB)/8, $0x00000000ffffffff
DATA lanemask<>+40(SB)/8, $0x0000000000000000
DATA lanemask<>+48(SB)/8, $0x0000000000000000
DATA lanemask<>+56(SB)/8, $0x0000000000000000
DATA lanemask<>+64(SB)/8, $0xffffffffffffffff
DATA lanemask<>+72(SB)/8, $0x0000000000000000
DATA lanemask<>+80(SB)/8, $0x0000000000000000
DATA lanemask<>+88(SB)/8, $0x0000000000000000
DATA lanemask<>+96(SB)/8, $0xffffffffffffffff
DATA lanemask<>+104(SB)/8, $0x00000000ffffffff
DATA lanemask<>+112(SB)/8, $0x0000000000000000
DATA lanemask<>+120(SB)/8, $0x0000000000000000
DATA lanemask<>+128(SB)/8, $0xffffffffffffffff
DATA lanemask<>+136(SB)/8, $0xffffffffffffffff
DATA lanemask<>+144(SB)/8, $0x0000000000000000
DATA lanemask<>+152(SB)/8, $0x0000000000000000
DATA lanemask<>+160(SB)/8, $0xffffffffffffffff
DATA lanemask<>+168(SB)/8, $0xffffffffffffffff
DATA lanemask<>+176(SB)/8, $0x00000000ffffffff
DATA lanemask<>+184(SB)/8, $0x0000000000000000
DATA lanemask<>+192(SB)/8, $0xffffffffffffffff
DATA lanemask<>+200(SB)/8, $0xffffffffffffffff
DATA lanemask<>+208(SB)/8, $0xffffffffffffffff
DATA lanemask<>+216(SB)/8, $0x0000000000000000
DATA lanemask<>+224(SB)/8, $0xffffffffffffffff
DATA lanemask<>+232(SB)/8, $0xffffffffffffffff
DATA lanemask<>+240(SB)/8, $0xffffffffffffffff
DATA lanemask<>+248(SB)/8, $0x00000000ffffffff
DATA lanemask<>+256(SB)/8, $0xffffffffffffffff
DATA lanemask<>+264(SB)/8, $0xffffffffffffffff
DATA lanemask<>+272(SB)/8, $0xffffffffffffffff
DATA lanemask<>+280(SB)/8, $0xffffffffffffffff
GLOBL lanemask<>(SB), RODATA, $288

// func advanceBlockAVX2(b *particle.Block, lc *laneCoeffs, con *laneConsts, out *laneVecs, l0, l1 int) uint32
TEXT ·advanceBlockAVX2(SB), NOSPLIT, $0-52
	MOVQ b+0(FP), DI
	MOVQ lc+8(FP), SI
	MOVQ con+16(FP), R8
	MOVQ out+24(FP), R9
	MOVQ $lanemask<>(SB), R10
	MOVQ l0+32(FP), R11
	SHLQ $5, R11
	ADDQ R10, R11 // R11 = &lanemask[l0]
	MOVQ l1+40(FP), CX
	SHLQ $5, CX
	ADDQ R10, CX  // CX = &lanemask[l1]

	VBROADCASTSS 0(R8), Y12 // qdt2mc

	// ---- Stage A: gather. dx,dy,dz -> hax,hay,haz (Y3-5), cb (Y6-8).
	VMOVUPS BDX(DI), Y0
	VMOVUPS BDY(DI), Y1
	VMOVUPS BDZ(DI), Y2

	// hax = qdt2mc * ((Ex0 + dy*DExDy) + dz*(DExDz + dy*D2ExDyDz))
	VMOVUPS      32(SI), Y13      // DExDy
	VMULPS       Y1, Y13, Y13
	VMOVUPS      0(SI), Y14       // Ex0
	VADDPS       Y13, Y14, Y13
	VMOVUPS      96(SI), Y14      // D2ExDyDz
	VMULPS       Y1, Y14, Y14
	VMOVUPS      64(SI), Y15      // DExDz
	VADDPS       Y14, Y15, Y14
	VMULPS       Y2, Y14, Y14
	VADDPS       Y14, Y13, Y13
	VMULPS       Y13, Y12, Y3

	// hay = qdt2mc * ((Ey0 + dz*DEyDz) + dx*(DEyDx + dz*D2EyDzDx))
	VMOVUPS      160(SI), Y13     // DEyDz
	VMULPS       Y2, Y13, Y13
	VMOVUPS      128(SI), Y14     // Ey0
	VADDPS       Y13, Y14, Y13
	VMOVUPS      224(SI), Y14     // D2EyDzDx
	VMULPS       Y2, Y14, Y14
	VMOVUPS      192(SI), Y15     // DEyDx
	VADDPS       Y14, Y15, Y14
	VMULPS       Y0, Y14, Y14
	VADDPS       Y14, Y13, Y13
	VMULPS       Y13, Y12, Y4

	// haz = qdt2mc * ((Ez0 + dx*DEzDx) + dy*(DEzDy + dx*D2EzDxDy))
	VMOVUPS      288(SI), Y13     // DEzDx
	VMULPS       Y0, Y13, Y13
	VMOVUPS      256(SI), Y14     // Ez0
	VADDPS       Y13, Y14, Y13
	VMOVUPS      352(SI), Y14     // D2EzDxDy
	VMULPS       Y0, Y14, Y14
	VMOVUPS      320(SI), Y15     // DEzDy
	VADDPS       Y14, Y15, Y14
	VMULPS       Y1, Y14, Y14
	VADDPS       Y14, Y13, Y13
	VMULPS       Y13, Y12, Y5

	// cb = CB0 + d*DCBdD
	VMOVUPS      416(SI), Y13     // DCBxDx
	VMULPS       Y0, Y13, Y13
	VMOVUPS      384(SI), Y14     // CBx0
	VADDPS       Y13, Y14, Y6
	VMOVUPS      480(SI), Y13     // DCByDy
	VMULPS       Y1, Y13, Y13
	VMOVUPS      448(SI), Y14     // CBy0
	VADDPS       Y13, Y14, Y7
	VMOVUPS      544(SI), Y13     // DCBzDz
	VMULPS       Y2, Y13, Y13
	VMOVUPS      512(SI), Y14     // CBz0
	VADDPS       Y13, Y14, Y8

	// ---- Stage B: both half kicks and the Boris rotation.
	// dx,dy,dz (Y0-2) die here and become temps; they are reloaded
	// from the block in stage C.
	VMOVUPS BUX(DI), Y9
	VADDPS  Y3, Y9, Y9   // ux = Ux + hax
	VMOVUPS BUY(DI), Y10
	VADDPS  Y4, Y10, Y10
	VMOVUPS BUZ(DI), Y11
	VADDPS  Y5, Y11, Y11

	// gi = 1 / sqrt(1 + ((ux*ux + uy*uy) + uz*uz))
	VMULPS       Y9, Y9, Y0
	VMULPS       Y10, Y10, Y1
	VADDPS       Y1, Y0, Y0
	VMULPS       Y11, Y11, Y1
	VADDPS       Y1, Y0, Y0
	VBROADCASTSS one<>(SB), Y1
	VADDPS       Y0, Y1, Y0
	VSQRTPS      Y0, Y0
	VDIVPS       Y0, Y1, Y0

	// t = (qdt2mc*gi) * cb
	VMULPS Y12, Y0, Y0 // f0
	VMULPS Y0, Y6, Y6  // tx
	VMULPS Y0, Y7, Y7  // ty
	VMULPS Y0, Y8, Y8  // tz

	// s = 2 / (1 + ((tx*tx + ty*ty) + tz*tz))
	VMULPS       Y6, Y6, Y0
	VMULPS       Y7, Y7, Y1
	VADDPS       Y1, Y0, Y0
	VMULPS       Y8, Y8, Y1
	VADDPS       Y1, Y0, Y0
	VBROADCASTSS one<>(SB), Y1
	VADDPS       Y0, Y1, Y0
	VBROADCASTSS two<>(SB), Y1
	VDIVPS       Y0, Y1, Y0 // s

	// w = u + u x t
	VMULPS Y8, Y10, Y1 // uy*tz
	VMULPS Y7, Y11, Y2 // uz*ty
	VSUBPS Y2, Y1, Y1
	VADDPS Y1, Y9, Y1  // wx
	VMULPS Y6, Y11, Y2 // uz*tx
	VMULPS Y8, Y9, Y13 // ux*tz
	VSUBPS Y13, Y2, Y2
	VADDPS Y2, Y10, Y2 // wy
	VMULPS Y7, Y9, Y13 // ux*ty
	VMULPS Y6, Y10, Y14 // uy*tx
	VSUBPS Y14, Y13, Y13
	VADDPS Y13, Y11, Y13 // wz

	// u += s * (w x t)
	VMULPS Y8, Y2, Y14  // wy*tz
	VMULPS Y7, Y13, Y15 // wz*ty
	VSUBPS Y15, Y14, Y14
	VMULPS Y14, Y0, Y14
	VADDPS Y14, Y9, Y9
	VMULPS Y6, Y13, Y14 // wz*tx
	VMULPS Y8, Y1, Y15  // wx*tz
	VSUBPS Y15, Y14, Y14
	VMULPS Y14, Y0, Y14
	VADDPS Y14, Y10, Y10
	VMULPS Y7, Y1, Y14 // wx*ty
	VMULPS Y6, Y2, Y15 // wy*tx
	VSUBPS Y15, Y14, Y14
	VMULPS Y14, Y0, Y14
	VADDPS Y14, Y11, Y11

	// Second half kick; store the new momenta to lanes [l0, l1) only.
	VADDPS  Y3, Y9, Y9
	VADDPS  Y4, Y10, Y10
	VADDPS  Y5, Y11, Y11
	VMOVDQU (R11), Y14
	VMOVDQU (CX), Y15
	VPANDN  Y15, Y14, Y14 // lane mask = row[l1] &^ row[l0]
	VMASKMOVPS Y9, Y14, BUX(DI)
	VMASKMOVPS Y10, Y14, BUY(DI)
	VMASKMOVPS Y11, Y14, BUZ(DI)

	// ---- Stage C: final 1/gamma, displacement, crosser mask.
	VMULPS       Y9, Y9, Y0
	VMULPS       Y10, Y10, Y1
	VADDPS       Y1, Y0, Y0
	VMULPS       Y11, Y11, Y1
	VADDPS       Y1, Y0, Y0
	VBROADCASTSS one<>(SB), Y1
	VADDPS       Y0, Y1, Y0
	VSQRTPS      Y0, Y0
	VDIVPS       Y0, Y1, Y0 // gi

	// dd = (u*gi) * cdtd2; kept in Y3-5 and spilled to out for the
	// caller's mover records.
	VMULPS       Y0, Y9, Y3
	VBROADCASTSS 8(R8), Y13 // cdx
	VMULPS       Y13, Y3, Y3
	VMULPS       Y0, Y10, Y4
	VBROADCASTSS 12(R8), Y13 // cdy
	VMULPS       Y13, Y4, Y4
	VMULPS       Y0, Y11, Y5
	VBROADCASTSS 16(R8), Y13 // cdz
	VMULPS       Y13, Y5, Y5
	VMOVUPS      Y3, ODDX(R9)
	VMOVUPS      Y4, ODDY(R9)
	VMOVUPS      Y5, ODDZ(R9)

	// n = d + dd (the tentative new offsets)
	VMOVUPS BDX(DI), Y0
	VMOVUPS BDY(DI), Y1
	VMOVUPS BDZ(DI), Y2
	VADDPS  Y3, Y0, Y6
	VADDPS  Y4, Y1, Y7
	VADDPS  Y5, Y2, Y8

	// Crosser: |n| > 1 (or NaN) iff oneBits - (bits(n) &^ signbit)
	// wraps negative, detected per lane via the sign bit.
	VPBROADCASTD absmask<>(SB), Y13
	VPBROADCASTD one<>(SB), Y14
	VPAND        Y6, Y13, Y9
	VPSUBD       Y9, Y14, Y9
	VPAND        Y7, Y13, Y10
	VPSUBD       Y10, Y14, Y10
	VPOR         Y10, Y9, Y9
	VPAND        Y8, Y13, Y10
	VPSUBD       Y10, Y14, Y10
	VPOR         Y10, Y9, Y9
	VMOVMSKPS    Y9, AX // raw crosser bits (caller reads [l0, l1) only)

	// Offset store mask: lanes in [l0, l1) that did not cross.
	VMOVDQU (R11), Y14
	VMOVDQU (CX), Y15
	VPANDN  Y15, Y14, Y14
	VPANDN  Y14, Y9, Y10

	// ---- Stage D: in-cell current contributions, full width; the
	// caller accumulates lanes [l0, l1) in ascending order and skips
	// crossers. mx,my,mz overwrite dx,dy,dz; hx,hy,hz overwrite dd.
	VBROADCASTSS half<>(SB), Y13
	VMULPS       Y13, Y3, Y3
	VMULPS       Y13, Y4, Y4
	VMULPS       Y13, Y5, Y5
	VMOVUPS      BW(DI), Y11
	VBROADCASTSS 4(R8), Y13 // q
	VMULPS       Y13, Y11, Y11 // qw
	VADDPS       Y3, Y0, Y0    // mx
	VADDPS       Y4, Y1, Y1    // my
	VADDPS       Y5, Y2, Y2    // mz

	// v5 = (((qw*hx)*hy)*hz) * (1/3)
	VMULPS       Y3, Y11, Y12
	VMULPS       Y4, Y12, Y12
	VMULPS       Y5, Y12, Y12
	VBROADCASTSS third<>(SB), Y13
	VMULPS       Y13, Y12, Y12

	VBROADCASTSS one<>(SB), Y13

	// JX slots: qh = qw*hx; pair (my, mz).
	VMULPS  Y3, Y11, Y14
	VSUBPS  Y1, Y13, Y9  // 1-my
	VMULPS  Y9, Y14, Y9
	VSUBPS  Y2, Y13, Y15 // 1-mz
	VMULPS  Y15, Y9, Y9
	VADDPS  Y12, Y9, Y9
	VMOVUPS Y9, OC+0(R9)
	VADDPS  Y1, Y13, Y9 // 1+my
	VMULPS  Y9, Y14, Y9
	VMULPS  Y15, Y9, Y9
	VSUBPS  Y12, Y9, Y9
	VMOVUPS Y9, OC+32(R9)
	VADDPS  Y2, Y13, Y15 // 1+mz
	VSUBPS  Y1, Y13, Y9
	VMULPS  Y9, Y14, Y9
	VMULPS  Y15, Y9, Y9
	VSUBPS  Y12, Y9, Y9
	VMOVUPS Y9, OC+64(R9)
	VADDPS  Y1, Y13, Y9
	VMULPS  Y9, Y14, Y9
	VMULPS  Y15, Y9, Y9
	VADDPS  Y12, Y9, Y9
	VMOVUPS Y9, OC+96(R9)

	// JY slots: qh = qw*hy; pair (mz, mx).
	VMULPS  Y4, Y11, Y14
	VSUBPS  Y2, Y13, Y9  // 1-mz
	VMULPS  Y9, Y14, Y9
	VSUBPS  Y0, Y13, Y15 // 1-mx
	VMULPS  Y15, Y9, Y9
	VADDPS  Y12, Y9, Y9
	VMOVUPS Y9, OC+128(R9)
	VADDPS  Y2, Y13, Y9 // 1+mz
	VMULPS  Y9, Y14, Y9
	VMULPS  Y15, Y9, Y9
	VSUBPS  Y12, Y9, Y9
	VMOVUPS Y9, OC+160(R9)
	VADDPS  Y0, Y13, Y15 // 1+mx
	VSUBPS  Y2, Y13, Y9
	VMULPS  Y9, Y14, Y9
	VMULPS  Y15, Y9, Y9
	VSUBPS  Y12, Y9, Y9
	VMOVUPS Y9, OC+192(R9)
	VADDPS  Y2, Y13, Y9
	VMULPS  Y9, Y14, Y9
	VMULPS  Y15, Y9, Y9
	VADDPS  Y12, Y9, Y9
	VMOVUPS Y9, OC+224(R9)

	// JZ slots: qh = qw*hz; pair (mx, my).
	VMULPS  Y5, Y11, Y14
	VSUBPS  Y0, Y13, Y9  // 1-mx
	VMULPS  Y9, Y14, Y9
	VSUBPS  Y1, Y13, Y15 // 1-my
	VMULPS  Y15, Y9, Y9
	VADDPS  Y12, Y9, Y9
	VMOVUPS Y9, OC+256(R9)
	VADDPS  Y0, Y13, Y9 // 1+mx
	VMULPS  Y9, Y14, Y9
	VMULPS  Y15, Y9, Y9
	VSUBPS  Y12, Y9, Y9
	VMOVUPS Y9, OC+288(R9)
	VADDPS  Y1, Y13, Y15 // 1+my
	VSUBPS  Y0, Y13, Y9
	VMULPS  Y9, Y14, Y9
	VMULPS  Y15, Y9, Y9
	VSUBPS  Y12, Y9, Y9
	VMOVUPS Y9, OC+320(R9)
	VADDPS  Y0, Y13, Y9
	VMULPS  Y9, Y14, Y9
	VMULPS  Y15, Y9, Y9
	VADDPS  Y12, Y9, Y9
	VMOVUPS Y9, OC+352(R9)

	// Commit the new offsets of the in-range, non-crossing lanes.
	VMASKMOVPS Y6, Y10, BDX(DI)
	VMASKMOVPS Y7, Y10, BDY(DI)
	VMASKMOVPS Y8, Y10, BDZ(DI)

	MOVL AX, ret+48(FP)
	VZEROUPPER
	RET
