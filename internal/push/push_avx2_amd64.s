//go:build !purego

// AVX2 span routine for the AoSoA particle push: the three staged lane
// loops and the contribution stage of advanceSpanGo fused into one
// straight-line vector routine over the lanes [s0, s1) of a single
// 256-byte particle.Block. The 8 lanes of the block are the 8 float32
// lanes of a YMM register, so each "lane loop" of the Go routine
// collapses into a handful of vector instructions.
//
// Bit-exactness contract (see DESIGN §8.2 and the parity tests): every
// lane is arithmetically independent, every instruction used is IEEE
// correctly rounded per lane (VADDPS/VSUBPS/VMULPS/VDIVPS/VSQRTPS),
// FMA is deliberately not used (gc emits no FMA contraction for the Go
// kernel on amd64, so fusing here would change roundings), and the
// association of every expression mirrors the Go source exactly.
// Go's rsqrt — float32 SQRTSS then DIVSS — becomes VSQRTPS + VDIVPS,
// the same two correctly-rounded operations lane-wise. Loads are full
// 32-byte vectors (garbage lanes compute garbage harmlessly); stores
// are masked so lanes outside the span, and the pre-step offsets of
// crossing lanes, are never written. The caller performs the ordered
// scalar accumulation of the per-lane current contributions, so the
// run cell's addition chains stay exactly the scalar sweep's.
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

// spanmask<> row k (k = 0..8) has the first k dword lanes set; the
// span [s0, s1) mask is row[s1] &^ row[s0].
DATA spanmask<>+0(SB)/8, $0x0000000000000000
DATA spanmask<>+8(SB)/8, $0x0000000000000000
DATA spanmask<>+16(SB)/8, $0x0000000000000000
DATA spanmask<>+24(SB)/8, $0x0000000000000000
DATA spanmask<>+32(SB)/8, $0x00000000ffffffff
DATA spanmask<>+40(SB)/8, $0x0000000000000000
DATA spanmask<>+48(SB)/8, $0x0000000000000000
DATA spanmask<>+56(SB)/8, $0x0000000000000000
DATA spanmask<>+64(SB)/8, $0xffffffffffffffff
DATA spanmask<>+72(SB)/8, $0x0000000000000000
DATA spanmask<>+80(SB)/8, $0x0000000000000000
DATA spanmask<>+88(SB)/8, $0x0000000000000000
DATA spanmask<>+96(SB)/8, $0xffffffffffffffff
DATA spanmask<>+104(SB)/8, $0x00000000ffffffff
DATA spanmask<>+112(SB)/8, $0x0000000000000000
DATA spanmask<>+120(SB)/8, $0x0000000000000000
DATA spanmask<>+128(SB)/8, $0xffffffffffffffff
DATA spanmask<>+136(SB)/8, $0xffffffffffffffff
DATA spanmask<>+144(SB)/8, $0x0000000000000000
DATA spanmask<>+152(SB)/8, $0x0000000000000000
DATA spanmask<>+160(SB)/8, $0xffffffffffffffff
DATA spanmask<>+168(SB)/8, $0xffffffffffffffff
DATA spanmask<>+176(SB)/8, $0x00000000ffffffff
DATA spanmask<>+184(SB)/8, $0x0000000000000000
DATA spanmask<>+192(SB)/8, $0xffffffffffffffff
DATA spanmask<>+200(SB)/8, $0xffffffffffffffff
DATA spanmask<>+208(SB)/8, $0xffffffffffffffff
DATA spanmask<>+216(SB)/8, $0x0000000000000000
DATA spanmask<>+224(SB)/8, $0xffffffffffffffff
DATA spanmask<>+232(SB)/8, $0xffffffffffffffff
DATA spanmask<>+240(SB)/8, $0xffffffffffffffff
DATA spanmask<>+248(SB)/8, $0x00000000ffffffff
DATA spanmask<>+256(SB)/8, $0xffffffffffffffff
DATA spanmask<>+264(SB)/8, $0xffffffffffffffff
DATA spanmask<>+272(SB)/8, $0xffffffffffffffff
DATA spanmask<>+280(SB)/8, $0xffffffffffffffff
GLOBL spanmask<>(SB), RODATA, $288

// func advanceSpanAVX2(b *particle.Block, cc *interp.Coeffs, con *laneConsts, out *laneVecs, s0, s1 int) uint32
TEXT ·advanceSpanAVX2(SB), NOSPLIT, $0-52
	MOVQ b+0(FP), DI
	MOVQ cc+8(FP), SI
	MOVQ con+16(FP), R8
	MOVQ out+24(FP), R9
	MOVQ $spanmask<>(SB), R10
	MOVQ s0+32(FP), R11
	SHLQ $5, R11
	ADDQ R10, R11 // R11 = &spanmask[s0]
	MOVQ s1+40(FP), CX
	SHLQ $5, CX
	ADDQ R10, CX  // CX = &spanmask[s1]

	VBROADCASTSS 0(R8), Y12 // qdt2mc

	// ---- Stage A: gather. dx,dy,dz -> hax,hay,haz (Y3-5), cb (Y6-8).
	VMOVUPS BDX(DI), Y0
	VMOVUPS BDY(DI), Y1
	VMOVUPS BDZ(DI), Y2

	// hax = qdt2mc * ((Ex0 + dy*DExDy) + dz*(DExDz + dy*D2ExDyDz))
	VBROADCASTSS 4(SI), Y13  // DExDy
	VMULPS       Y1, Y13, Y13
	VBROADCASTSS 0(SI), Y14  // Ex0
	VADDPS       Y13, Y14, Y13
	VBROADCASTSS 12(SI), Y14 // D2ExDyDz
	VMULPS       Y1, Y14, Y14
	VBROADCASTSS 8(SI), Y15  // DExDz
	VADDPS       Y14, Y15, Y14
	VMULPS       Y2, Y14, Y14
	VADDPS       Y14, Y13, Y13
	VMULPS       Y13, Y12, Y3

	// hay = qdt2mc * ((Ey0 + dz*DEyDz) + dx*(DEyDx + dz*D2EyDzDx))
	VBROADCASTSS 20(SI), Y13 // DEyDz
	VMULPS       Y2, Y13, Y13
	VBROADCASTSS 16(SI), Y14 // Ey0
	VADDPS       Y13, Y14, Y13
	VBROADCASTSS 28(SI), Y14 // D2EyDzDx
	VMULPS       Y2, Y14, Y14
	VBROADCASTSS 24(SI), Y15 // DEyDx
	VADDPS       Y14, Y15, Y14
	VMULPS       Y0, Y14, Y14
	VADDPS       Y14, Y13, Y13
	VMULPS       Y13, Y12, Y4

	// haz = qdt2mc * ((Ez0 + dx*DEzDx) + dy*(DEzDy + dx*D2EzDxDy))
	VBROADCASTSS 36(SI), Y13 // DEzDx
	VMULPS       Y0, Y13, Y13
	VBROADCASTSS 32(SI), Y14 // Ez0
	VADDPS       Y13, Y14, Y13
	VBROADCASTSS 44(SI), Y14 // D2EzDxDy
	VMULPS       Y0, Y14, Y14
	VBROADCASTSS 40(SI), Y15 // DEzDy
	VADDPS       Y14, Y15, Y14
	VMULPS       Y1, Y14, Y14
	VADDPS       Y14, Y13, Y13
	VMULPS       Y13, Y12, Y5

	// cb = CB0 + d*DCBdD
	VBROADCASTSS 52(SI), Y13 // DCBxDx
	VMULPS       Y0, Y13, Y13
	VBROADCASTSS 48(SI), Y14 // CBx0
	VADDPS       Y13, Y14, Y6
	VBROADCASTSS 60(SI), Y13 // DCByDy
	VMULPS       Y1, Y13, Y13
	VBROADCASTSS 56(SI), Y14 // CBy0
	VADDPS       Y13, Y14, Y7
	VBROADCASTSS 68(SI), Y13 // DCBzDz
	VMULPS       Y2, Y13, Y13
	VBROADCASTSS 64(SI), Y14 // CBz0
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

	// Second half kick; store the new momenta to span lanes only.
	VADDPS  Y3, Y9, Y9
	VADDPS  Y4, Y10, Y10
	VADDPS  Y5, Y11, Y11
	VMOVDQU (R11), Y14
	VMOVDQU (CX), Y15
	VPANDN  Y15, Y14, Y14 // span mask = row[s1] &^ row[s0]
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
	VMOVMSKPS    Y9, AX // raw crosser bits (caller masks to the span)

	// Offset store mask: span lanes that did not cross.
	VMOVDQU (R11), Y14
	VMOVDQU (CX), Y15
	VPANDN  Y15, Y14, Y14
	VPANDN  Y14, Y9, Y10

	// ---- Stage D: in-cell current contributions, full width; the
	// caller accumulates span lanes in ascending order and discards
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

	// Commit the new offsets of the in-span, non-crossing lanes.
	VMASKMOVPS Y6, Y10, BDX(DI)
	VMASKMOVPS Y7, Y10, BDY(DI)
	VMASKMOVPS Y8, Y10, BDZ(DI)

	MOVL AX, ret+48(FP)
	VZEROUPPER
	RET
