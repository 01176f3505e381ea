//go:build !purego

// AVX-512 pair routine: advanceBlockAVX2 widened to the 16 float32 lanes
// of a ZMM register, pushing the lanes [l0, l1) ⊂ [0, 16) of the blocks
// b and b+1 as one instruction stream. Lane l < 8 is lane l of block b,
// lane l ≥ 8 lane l−8 of block b+1. The push is latency-bound with one
// block in flight, so two blocks per call fill the chain's idle slots.
//
// Every step is the AVX2 routine's, lane for lane, with the operands in
// the same order (see push_avx2_amd64.s for the bit-exactness contract):
// a QUAD row is a VBROADCASTF32X4 plus three VINSERTF32X4 (QUADLO,
// QUADHI), TRANSPOSE4 runs unchanged on Z registers, lane masks are
// k-registers (VMASKMOVPS → masked VMOVUPS, VMOVMSKPS → VPMOVD2M, VANDPS
// with the deposit mask → a zeroing-masked last operation), and the fold
// adds the 16 lanes' cells into the run in ascending lane order, through
// memory, exactly as the 8-lane fold does. So every accumulator slot's
// addition chain, and every bit written, is the AVX2 routine's and
// advanceBlockGo's.
//
// Memory contract: block b is read in full, like the AVX2 routine's
// block; block b+1 is read and written only under the lane mask. A
// masked EVEX load or store touches, and can fault on, only its
// selected elements, so a range that ends in a single block — block b
// the last of its slice — runs through this routine too. Lanes of
// block b+1 outside the range read as zero. Lanes outside [l0, l1) take
// lane l0's voxel before any table load, every voxel must lie in
// [0, n), n = min(len(ip), len(ac), MaxInt32) — one unsigned VPCMPUD —
// or the routine returns badVoxel having written nothing. The frame is
// 880 bytes (below); every instruction is VEX or EVEX encoded (no
// legacy SSE), and the routine ends in VZEROUPPER.
//
// Register plan (Z12 = broadcast qdt2mc through stage B):
//   prologue:  K1 lane mask, K2 its block-b+1 half, K3 its block-b half;
//              AX BX CX DX R10-R13 = 9·voxel of lanes 0-7, then 8-15
//   A gather:  Z0-2 dx,dy,dz; Z16-31 the four groups' rows; Z13-14 and
//              X9-11 temps -> Z3-5 hax,hay,haz  Z6-8 cbx,cby,cbz
//   B boris:   Z9-11 ux,uy,uz updated, masked-stored to Ux,Uy,Uz
//   C move:    Z3-5 ddx,ddy,ddz  Z0-2 dx,dy,dz  Z6-8 nx,ny,nz
//              AX crosser bits, K6 deposit mask (in range, in cell)
//   D scatter: Z0-2 mx,my,mz  Z3-5 hx,hy,hz  Z11 qw  Z12 v5  Z13 1.0
//              Z14 qh  Z9/Z15 temps -> 12 rows in Z16-27
//   E run:     rows -> per-lane cells in the frame; X0-2 the run's
//              JX,JY,JZ; as advanceBlockAVX2's stage E

#include "textflag.h"

#include "push_amd64.h"

// A 16-lane access at field offset f+NEXT puts block b+1's field f in
// lanes 8-15.
#define NEXT 224

// Frame layout:
#define FVOX 0     // the checked lane voxels, 64 B
#define FDEAD 64   // the store target of a run that has not started, 48 B
#define FCELLS 112 // the 16 lanes' accum.Cells, 768 B

// LOAD16 loads field off of the pair: block b's eight lanes into the
// low half (a VEX load, which zeroes the high half) and block b+1's
// in-range lanes (K2) into the high half.
#define LOAD16(off, y, z) \
	VMOVUPS off(DI), y; \
	VMOVUPS (off+NEXT)(DI), K2, z

// STORE16 stores z to field off of the pair under the block-b mask klo
// and the block-b+1 mask khi.
#define STORE16(z, y, klo, khi, off) \
	VMOVUPS y, klo, off(DI); \
	VMOVUPS z, khi, (off+NEXT)(DI)

// IDX8 sets AX BX CX DX R10-R13 to 9·voxel of the eight lanes whose
// voxels sit at frame offset off: lane l's interpolator is SI + 8·R.
#define IDX8(off) \
	MOVL (off+0)(SP), AX; \
	LEAQ (AX)(AX*8), AX; \
	MOVL (off+4)(SP), BX; \
	LEAQ (BX)(BX*8), BX; \
	MOVL (off+8)(SP), CX; \
	LEAQ (CX)(CX*8), CX; \
	MOVL (off+12)(SP), DX; \
	LEAQ (DX)(DX*8), DX; \
	MOVL (off+16)(SP), R10; \
	LEAQ (R10)(R10*8), R10; \
	MOVL (off+20)(SP), R11; \
	LEAQ (R11)(R11*8), R11; \
	MOVL (off+24)(SP), R12; \
	LEAQ (R12)(R12*8), R12; \
	MOVL (off+28)(SP), R13; \
	LEAQ (R13)(R13*8), R13

// QUADLO fills the low two 128-bit slots of rows r0..r3 with the 16
// bytes at offset off of lanes 0|4, 1|5, 2|6, 3|7 (IDX8 of lanes 0-7);
// QUADHI fills the high two with lanes 8|12 ... 11|15 (IDX8 of lanes
// 8-15). Row k then holds lanes k, k+4, k+8, k+12.
#define QUADLO(off, r0, r1, r2, r3) \
	VBROADCASTF32X4 off(SI)(AX*8), r0; \
	VINSERTF32X4    $1, off(SI)(R10*8), r0, r0; \
	VBROADCASTF32X4 off(SI)(BX*8), r1; \
	VINSERTF32X4    $1, off(SI)(R11*8), r1, r1; \
	VBROADCASTF32X4 off(SI)(CX*8), r2; \
	VINSERTF32X4    $1, off(SI)(R12*8), r2, r2; \
	VBROADCASTF32X4 off(SI)(DX*8), r3; \
	VINSERTF32X4    $1, off(SI)(R13*8), r3, r3

#define QUADHI(off, r0, r1, r2, r3) \
	VINSERTF32X4 $2, off(SI)(AX*8), r0, r0; \
	VINSERTF32X4 $3, off(SI)(R10*8), r0, r0; \
	VINSERTF32X4 $2, off(SI)(BX*8), r1, r1; \
	VINSERTF32X4 $3, off(SI)(R11*8), r1, r1; \
	VINSERTF32X4 $2, off(SI)(CX*8), r2, r2; \
	VINSERTF32X4 $3, off(SI)(R12*8), r2, r2; \
	VINSERTF32X4 $2, off(SI)(DX*8), r3, r3; \
	VINSERTF32X4 $3, off(SI)(R13*8), r3, r3

// CELL4 stores TRANSPOSE4's row k (r, its low quarter x) — slots of
// lanes k, k+4, k+8, k+12 — to those lanes' cells at slot-group offset
// off (0 JX, 16 JY, 32 JZ).
#define CELL4(r, x, k, off) \
	VMOVUPS       x, (FCELLS+(k)*48+off)(SP); \
	VEXTRACTF32X4 $1, r, (FCELLS+(k+4)*48+off)(SP); \
	VEXTRACTF32X4 $2, r, (FCELLS+(k+8)*48+off)(SP); \
	VEXTRACTF32X4 $3, r, (FCELLS+(k+12)*48+off)(SP)

// CELLS16 transposes four current rows and stores them as cells.
#define CELLS16(r0, r1, r2, r3, x0, x1, x2, x3, off) \
	TRANSPOSE4(r0, r1, r2, r3, Z28, Z29); \
	CELL4(r0, x0, 0, off); \
	CELL4(r1, x1, 1, off); \
	CELL4(r2, x2, 2, off); \
	CELL4(r3, x3, 3, off)

// func advanceBlock16AVX512(b *particle.Block, ip []interp.Coeffs, ac []accum.Cell, run *laneRun, con *laneConsts, out *laneVecs, l0, l1 int) uint32
TEXT ·advanceBlock16AVX512(SB), 0, $880-100
	MOVQ b+0(FP), DI

	// ---- Prologue: lane masks, voxel check, per-lane interpolator rows.
	// K1 = bits [l0, l1), K2 = K1's lanes 8-15, K3 = K1's lanes 0-7.
	MOVQ  l0+80(FP), R11
	MOVQ  l1+88(FP), CX
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	MOVL  $1, DX
	MOVQ  R11, CX
	SHLL  CX, DX
	DECL  DX
	NOTL  DX
	ANDL  DX, AX
	KMOVW AX, K1
	MOVL  AX, DX
	ANDL  $0xff00, AX
	KMOVW AX, K2
	ANDL  $0xff, DX
	KMOVW DX, K3

	// Lanes outside [l0, l1) take lane l0's voxel, so no table load can
	// leave the tables on their account; then every lane must satisfy
	// v < n unsigned, n = min(len(ip), len(ac), MaxInt32).
	VMOVDQU      BVOX(DI), Y0
	VMOVDQU32    (BVOX+NEXT)(DI), K2, Z0
	VPBROADCASTD R11, Z1
	VPERMD       Z0, Z1, Z1
	VMOVDQA32    Z0, K1, Z1
	MOVQ         ip_len+16(FP), AX
	MOVQ         ac_len+40(FP), DX
	CMPQ         DX, AX
	CMOVQLT      DX, AX
	MOVL         $0x7fffffff, DX
	CMPQ         AX, DX
	CMOVQGT      DX, AX
	VPBROADCASTD AX, Z2
	VPCMPUD      $1, Z2, Z1, K4 // v < n
	KMOVW        K4, AX
	CMPL         AX, $0xffff
	JNE          badvoxel
	VMOVDQU32    Z1, FVOX(SP)

	MOVQ         ip_base+8(FP), SI
	MOVQ         con+64(FP), R8
	MOVQ         out+72(FP), R9
	VBROADCASTSS 0(R8), Z12 // qdt2mc

	// The four 16-byte groups of every lane's interpolator, lanes 0-7
	// then 8-15, and the CBz0/DCBzDz pairs: lanes 0 1 | 4 5 | 8 9 | 12 13
	// in Z9, 2 3 | 6 7 | 10 11 | 14 15 in Z10.
	IDX8(FVOX)
	QUADLO(0, Z16, Z17, Z18, Z19)
	QUADLO(16, Z20, Z21, Z22, Z23)
	QUADLO(32, Z24, Z25, Z26, Z27)
	QUADLO(48, Z28, Z29, Z30, Z31)
	VMOVSD        64(SI)(AX*8), X9
	VMOVHPS       64(SI)(BX*8), X9, X9
	VMOVSD        64(SI)(R10*8), X11
	VMOVHPS       64(SI)(R11*8), X11, X11
	VINSERTF32X4  $1, X11, Z9, Z9
	VMOVSD        64(SI)(CX*8), X10
	VMOVHPS       64(SI)(DX*8), X10, X10
	VMOVSD        64(SI)(R12*8), X11
	VMOVHPS       64(SI)(R13*8), X11, X11
	VINSERTF32X4  $1, X11, Z10, Z10
	IDX8(FVOX+32)
	QUADHI(0, Z16, Z17, Z18, Z19)
	QUADHI(16, Z20, Z21, Z22, Z23)
	QUADHI(32, Z24, Z25, Z26, Z27)
	QUADHI(48, Z28, Z29, Z30, Z31)
	VMOVSD        64(SI)(AX*8), X11
	VMOVHPS       64(SI)(BX*8), X11, X11
	VINSERTF32X4  $2, X11, Z9, Z9
	VMOVSD        64(SI)(R10*8), X11
	VMOVHPS       64(SI)(R11*8), X11, X11
	VINSERTF32X4  $3, X11, Z9, Z9
	VMOVSD        64(SI)(CX*8), X11
	VMOVHPS       64(SI)(DX*8), X11, X11
	VINSERTF32X4  $2, X11, Z10, Z10
	VMOVSD        64(SI)(R12*8), X11
	VMOVHPS       64(SI)(R13*8), X11, X11
	VINSERTF32X4  $3, X11, Z10, Z10

	// ---- Stage A: gather. dx,dy,dz -> hax,hay,haz (Z3-5), cb (Z6-8).
	LOAD16(BDX, Y0, Z0)
	LOAD16(BDY, Y1, Z1)
	LOAD16(BDZ, Y2, Z2)

	// hax = qdt2mc * ((Ex0 + dy*DExDy) + dz*(DExDz + dy*D2ExDyDz))
	TRANSPOSE4(Z16, Z17, Z18, Z19, Z13, Z14) // Ex0 DExDy DExDz D2ExDyDz
	VMULPS Z1, Z17, Z17
	VADDPS Z17, Z16, Z16
	VMULPS Z1, Z19, Z19
	VADDPS Z19, Z18, Z19
	VMULPS Z2, Z19, Z19
	VADDPS Z19, Z16, Z16
	VMULPS Z16, Z12, Z3

	// hay = qdt2mc * ((Ey0 + dz*DEyDz) + dx*(DEyDx + dz*D2EyDzDx))
	TRANSPOSE4(Z20, Z21, Z22, Z23, Z13, Z14) // Ey0 DEyDz DEyDx D2EyDzDx
	VMULPS Z2, Z21, Z21
	VADDPS Z21, Z20, Z20
	VMULPS Z2, Z23, Z23
	VADDPS Z23, Z22, Z23
	VMULPS Z0, Z23, Z23
	VADDPS Z23, Z20, Z20
	VMULPS Z20, Z12, Z4

	// haz = qdt2mc * ((Ez0 + dx*DEzDx) + dy*(DEzDy + dx*D2EzDxDy))
	TRANSPOSE4(Z24, Z25, Z26, Z27, Z13, Z14) // Ez0 DEzDx DEzDy D2EzDxDy
	VMULPS Z0, Z25, Z25
	VADDPS Z25, Z24, Z24
	VMULPS Z0, Z27, Z27
	VADDPS Z27, Z26, Z27
	VMULPS Z1, Z27, Z27
	VADDPS Z27, Z24, Z24
	VMULPS Z24, Z12, Z5

	// cb = CB0 + d*DCBdD
	TRANSPOSE4(Z28, Z29, Z30, Z31, Z13, Z14) // CBx0 DCBxDx CBy0 DCByDy
	VMULPS  Z0, Z29, Z29
	VADDPS  Z29, Z28, Z6
	VMULPS  Z1, Z31, Z31
	VADDPS  Z31, Z30, Z7
	VSHUFPS $0xDD, Z10, Z9, Z11 // DCBzDz
	VSHUFPS $0x88, Z10, Z9, Z9  // CBz0
	VMULPS  Z2, Z11, Z11
	VADDPS  Z11, Z9, Z8

	// ---- Stage B: both half kicks and the Boris rotation.
	LOAD16(BUX, Y9, Z9)
	VADDPS Z3, Z9, Z9 // ux = Ux + hax
	LOAD16(BUY, Y10, Z10)
	VADDPS Z4, Z10, Z10
	LOAD16(BUZ, Y11, Z11)
	VADDPS Z5, Z11, Z11

	// gi = 1 / sqrt(1 + ((ux*ux + uy*uy) + uz*uz))
	VMULPS       Z9, Z9, Z0
	VMULPS       Z10, Z10, Z1
	VADDPS       Z1, Z0, Z0
	VMULPS       Z11, Z11, Z1
	VADDPS       Z1, Z0, Z0
	VBROADCASTSS one<>(SB), Z1
	VADDPS       Z0, Z1, Z0
	VSQRTPS      Z0, Z0
	VDIVPS       Z0, Z1, Z0

	// t = (qdt2mc*gi) * cb
	VMULPS Z12, Z0, Z0 // f0
	VMULPS Z0, Z6, Z6  // tx
	VMULPS Z0, Z7, Z7  // ty
	VMULPS Z0, Z8, Z8  // tz

	// s = 2 / (1 + ((tx*tx + ty*ty) + tz*tz))
	VMULPS       Z6, Z6, Z0
	VMULPS       Z7, Z7, Z1
	VADDPS       Z1, Z0, Z0
	VMULPS       Z8, Z8, Z1
	VADDPS       Z1, Z0, Z0
	VBROADCASTSS one<>(SB), Z1
	VADDPS       Z0, Z1, Z0
	VBROADCASTSS two<>(SB), Z1
	VDIVPS       Z0, Z1, Z0 // s

	// w = u + u x t
	VMULPS Z8, Z10, Z1  // uy*tz
	VMULPS Z7, Z11, Z2  // uz*ty
	VSUBPS Z2, Z1, Z1
	VADDPS Z1, Z9, Z1   // wx
	VMULPS Z6, Z11, Z2  // uz*tx
	VMULPS Z8, Z9, Z13  // ux*tz
	VSUBPS Z13, Z2, Z2
	VADDPS Z2, Z10, Z2  // wy
	VMULPS Z7, Z9, Z13  // ux*ty
	VMULPS Z6, Z10, Z14 // uy*tx
	VSUBPS Z14, Z13, Z13
	VADDPS Z13, Z11, Z13 // wz

	// u += s * (w x t)
	VMULPS Z8, Z2, Z14  // wy*tz
	VMULPS Z7, Z13, Z15 // wz*ty
	VSUBPS Z15, Z14, Z14
	VMULPS Z14, Z0, Z14
	VADDPS Z14, Z9, Z9
	VMULPS Z6, Z13, Z14 // wz*tx
	VMULPS Z8, Z1, Z15  // wx*tz
	VSUBPS Z15, Z14, Z14
	VMULPS Z14, Z0, Z14
	VADDPS Z14, Z10, Z10
	VMULPS Z7, Z1, Z14 // wx*ty
	VMULPS Z6, Z2, Z15 // wy*tx
	VSUBPS Z15, Z14, Z14
	VMULPS Z14, Z0, Z14
	VADDPS Z14, Z11, Z11

	// Second half kick; store the new momenta to lanes [l0, l1) only.
	VADDPS Z3, Z9, Z9
	VADDPS Z4, Z10, Z10
	VADDPS Z5, Z11, Z11
	STORE16(Z9, Y9, K3, K2, BUX)
	STORE16(Z10, Y10, K3, K2, BUY)
	STORE16(Z11, Y11, K3, K2, BUZ)

	// ---- Stage C: final 1/gamma, displacement, crosser mask.
	VMULPS       Z9, Z9, Z0
	VMULPS       Z10, Z10, Z1
	VADDPS       Z1, Z0, Z0
	VMULPS       Z11, Z11, Z1
	VADDPS       Z1, Z0, Z0
	VBROADCASTSS one<>(SB), Z1
	VADDPS       Z0, Z1, Z0
	VSQRTPS      Z0, Z0
	VDIVPS       Z0, Z1, Z0 // gi

	// dd = (u*gi) * cdtd2; kept in Z3-5 and spilled to out for the
	// caller's mover records.
	VMULPS       Z0, Z9, Z3
	VBROADCASTSS 8(R8), Z13 // cdx
	VMULPS       Z13, Z3, Z3
	VMULPS       Z0, Z10, Z4
	VBROADCASTSS 12(R8), Z13 // cdy
	VMULPS       Z13, Z4, Z4
	VMULPS       Z0, Z11, Z5
	VBROADCASTSS 16(R8), Z13 // cdz
	VMULPS       Z13, Z5, Z5
	VMOVUPS      Z3, ODDX(R9)
	VMOVUPS      Z4, ODDY(R9)
	VMOVUPS      Z5, ODDZ(R9)

	// n = d + dd (the tentative new offsets)
	LOAD16(BDX, Y0, Z0)
	LOAD16(BDY, Y1, Z1)
	LOAD16(BDZ, Y2, Z2)
	VADDPS Z3, Z0, Z6
	VADDPS Z4, Z1, Z7
	VADDPS Z5, Z2, Z8

	// Crosser: |n| > 1 (or NaN) iff oneBits - (bits(n) &^ signbit)
	// wraps negative, detected per lane via the sign bit.
	VPBROADCASTD absmask<>(SB), Z13
	VPBROADCASTD one<>(SB), Z14
	VPANDD       Z6, Z13, Z9
	VPSUBD       Z9, Z14, Z9
	VPANDD       Z7, Z13, Z10
	VPSUBD       Z10, Z14, Z10
	VPORD        Z10, Z9, Z9
	VPANDD       Z8, Z13, Z10
	VPSUBD       Z10, Z14, Z10
	VPORD        Z10, Z9, Z9

	// Crosser bits of [l0, l1) in AX; deposit mask K6: in range, not
	// crossing.
	VPMOVD2M Z9, K4
	KANDW    K1, K4, K5
	KMOVW    K5, AX
	KANDNW   K1, K4, K6

	// ---- Stage D: in-cell current rows, zero in the lanes that do not
	// deposit. mx,my,mz overwrite dx,dy,dz; hx,hy,hz overwrite dd.
	VBROADCASTSS half<>(SB), Z13
	VMULPS       Z13, Z3, Z3
	VMULPS       Z13, Z4, Z4
	VMULPS       Z13, Z5, Z5
	LOAD16(BW, Y11, Z11)
	VBROADCASTSS 4(R8), Z13 // q
	VMULPS       Z13, Z11, Z11 // qw
	VADDPS       Z3, Z0, Z0    // mx
	VADDPS       Z4, Z1, Z1    // my
	VADDPS       Z5, Z2, Z2    // mz

	// v5 = (((qw*hx)*hy)*hz) * (1/3)
	VMULPS       Z3, Z11, Z12
	VMULPS       Z4, Z12, Z12
	VMULPS       Z5, Z12, Z12
	VBROADCASTSS third<>(SB), Z13
	VMULPS       Z13, Z12, Z12

	VBROADCASTSS one<>(SB), Z13

	// JX slots: qh = qw*hx; pair (my, mz).
	VMULPS   Z3, Z11, Z14
	VSUBPS   Z1, Z13, Z16 // 1-my
	VMULPS   Z16, Z14, Z16
	VSUBPS   Z2, Z13, Z15 // 1-mz
	VMULPS   Z15, Z16, Z16
	VADDPS.Z Z12, Z16, K6, Z16
	VADDPS   Z1, Z13, Z17 // 1+my
	VMULPS   Z17, Z14, Z17
	VMULPS   Z15, Z17, Z17
	VSUBPS.Z Z12, Z17, K6, Z17
	VADDPS   Z2, Z13, Z15 // 1+mz
	VSUBPS   Z1, Z13, Z18
	VMULPS   Z18, Z14, Z18
	VMULPS   Z15, Z18, Z18
	VSUBPS.Z Z12, Z18, K6, Z18
	VADDPS   Z1, Z13, Z19
	VMULPS   Z19, Z14, Z19
	VMULPS   Z15, Z19, Z19
	VADDPS.Z Z12, Z19, K6, Z19

	// JY slots: qh = qw*hy; pair (mz, mx).
	VMULPS   Z4, Z11, Z14
	VSUBPS   Z2, Z13, Z20 // 1-mz
	VMULPS   Z20, Z14, Z20
	VSUBPS   Z0, Z13, Z15 // 1-mx
	VMULPS   Z15, Z20, Z20
	VADDPS.Z Z12, Z20, K6, Z20
	VADDPS   Z2, Z13, Z21 // 1+mz
	VMULPS   Z21, Z14, Z21
	VMULPS   Z15, Z21, Z21
	VSUBPS.Z Z12, Z21, K6, Z21
	VADDPS   Z0, Z13, Z15 // 1+mx
	VSUBPS   Z2, Z13, Z22
	VMULPS   Z22, Z14, Z22
	VMULPS   Z15, Z22, Z22
	VSUBPS.Z Z12, Z22, K6, Z22
	VADDPS   Z2, Z13, Z23
	VMULPS   Z23, Z14, Z23
	VMULPS   Z15, Z23, Z23
	VADDPS.Z Z12, Z23, K6, Z23

	// JZ slots: qh = qw*hz; pair (mx, my).
	VMULPS   Z5, Z11, Z14
	VSUBPS   Z0, Z13, Z24 // 1-mx
	VMULPS   Z24, Z14, Z24
	VSUBPS   Z1, Z13, Z15 // 1-my
	VMULPS   Z15, Z24, Z24
	VADDPS.Z Z12, Z24, K6, Z24
	VADDPS   Z0, Z13, Z25 // 1+mx
	VMULPS   Z25, Z14, Z25
	VMULPS   Z15, Z25, Z25
	VSUBPS.Z Z12, Z25, K6, Z25
	VADDPS   Z1, Z13, Z15 // 1+my
	VSUBPS   Z0, Z13, Z26
	VMULPS   Z26, Z14, Z26
	VMULPS   Z15, Z26, Z26
	VSUBPS.Z Z12, Z26, K6, Z26
	VADDPS   Z0, Z13, Z27
	VMULPS   Z27, Z14, Z27
	VMULPS   Z15, Z27, Z27
	VADDPS.Z Z12, Z27, K6, Z27

	// Commit the new offsets of the in-range, non-crossing lanes.
	KANDW K6, K3, K7
	KANDW K6, K2, K5
	STORE16(Z6, Y6, K7, K5, BDX)
	STORE16(Z7, Y7, K7, K5, BDY)
	STORE16(Z8, Y8, K7, K5, BDZ)

	// ---- Stage E: the rows as per-lane cells, then the run.
	CELLS16(Z16, Z17, Z18, Z19, X16, X17, X18, X19, 0)
	CELLS16(Z20, Z21, Z22, Z23, X20, X21, X22, X23, 16)
	CELLS16(Z24, Z25, Z26, Z27, X24, X25, X26, X27, 32)

	// The run continues from the previous call: reload its cell. With
	// no run yet, the first lane's store of the "finished" run lands in
	// the dead cell.
	MOVL    AX, ret+96(FP)
	MOVQ    ac_base+32(FP), SI
	MOVQ    run+56(FP), R8
	MOVQ    RN(R8), BX
	MOVLQSX RV(R8), DX
	MOVLQSX RLO(R8), R12
	MOVLQSX RHI(R8), R13
	MOVQ    l0+80(FP), CX
	MOVQ    l1+88(FP), R11
	LEAQ    (CX)(CX*2), R9
	SHLQ    $4, R9           // R9 = 48·l0
	LEAQ    FDEAD(SP), R10
	TESTQ   DX, DX
	JS      lane
	LEAQ    (DX)(DX*2), R10
	SHLQ    $4, R10
	ADDQ    SI, R10          // R10 = &ac[run voxel]
	VMOVUPS 0(R10), X0
	VMOVUPS 16(R10), X1
	VMOVUPS 32(R10), X2

	// Lanes [l0, l1) in ascending order, without a branch: every lane
	// stores the run's cell and loads its own voxel's, and adds its cell
	// (zero for a crosser) — advanceBlockAVX2's fold over 16 lanes.
lane:
	MOVLQSX FVOX(SP)(CX*4), R8
	VMOVUPS X0, 0(R10)
	VMOVUPS X1, 16(R10)
	VMOVUPS X2, 32(R10)
	MOVQ    R8, AX
	SUBQ    DX, AX
	NEGQ    AX               // CF = voxel changed
	ADCQ    $0, BX
	MOVQ    R8, DX
	CMPQ    DX, R12
	CMOVQLT DX, R12
	CMPQ    DX, R13
	CMOVQGT DX, R13
	LEAQ    (DX)(DX*2), R10
	SHLQ    $4, R10
	ADDQ    SI, R10
	VMOVUPS 0(R10), X0
	VMOVUPS 16(R10), X1
	VMOVUPS 32(R10), X2
	VMOVUPS FCELLS(SP)(R9*1), X3
	VADDPS  X0, X3, X0
	VMOVUPS FCELLS+16(SP)(R9*1), X4
	VADDPS  X1, X4, X1
	VMOVUPS FCELLS+32(SP)(R9*1), X5
	VADDPS  X2, X5, X2
	ADDQ    $48, R9
	INCQ    CX
	CMPQ    CX, R11
	JLT     lane

	// Store the run's cell back; the next call reloads it.
	VMOVUPS X0, 0(R10)
	VMOVUPS X1, 16(R10)
	VMOVUPS X2, 32(R10)
	MOVQ    run+56(FP), R8
	MOVQ    BX, RN(R8)
	MOVL    DX, RV(R8)
	MOVL    R12, RLO(R8)
	MOVL    R13, RHI(R8)
	VZEROUPPER
	RET

badvoxel:
	MOVL $0xffffffff, ret+96(FP) // badVoxel
	VZEROUPPER
	RET
