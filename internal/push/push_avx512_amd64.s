//go:build !purego

// AVX-512 quad routine: advanceBlockAVX2 widened to 32 lanes, pushing
// the lanes [l0, l1) ⊂ [0, 32) of the blocks b … b+3 in one call as two
// independent ZMM chains of 16 float32 lanes: chain 1 holds lanes 0-15
// (blocks b and b+1), chain 2 lanes 16-31 (blocks b+2 and b+3); lane l
// is lane l mod 8 of block b + l/8. The push is latency-bound with one
// chain in flight, so the two chains run side by side: each owns half
// the register file in stages B-D, and the stages alternate between the
// chains, so the second chain's work fills the first one's idle slots.
//
// Every step is the AVX2 routine's, lane for lane, with the operands in
// the same order (see push_avx2_amd64.s for the bit-exactness contract):
// a QUAD row is a VBROADCASTF32X4 plus three VINSERTF32X4 (QUADLO,
// QUADHI), TRANSPOSE4 runs unchanged on Z registers, lane masks are
// k-registers (VMASKMOVPS → masked VMOVUPS, VMOVMSKPS → VPMOVD2M, VANDPS
// with the deposit mask → a zeroing-masked last operation), and the fold
// adds the 32 lanes' cells into the run in ascending lane order, through
// memory, exactly as the 8-lane fold does. So every accumulator slot's
// addition chain, and every bit written, is the AVX2 routine's and
// advanceBlockGo's. Only the run's count and window are computed apart
// from the fold, as vectors in the prologue.
//
// Memory contract: l0 < 8, and block b's voxels are read in full;
// every other access to the four blocks is under the lane mask. A
// masked EVEX load or store touches, and can fault on, only its
// selected elements, so a range that ends in one, two or three blocks
// runs through this routine too. Masked-off lanes read as zero. Lanes
// outside [l0, l1) take lane l0's voxel before any table load, every
// voxel must lie in [0, n), n = min(len(ip), len(ac), MaxInt32) — an
// unsigned VPCMPUD per chain — or the routine returns badVoxel having
// written nothing. The frame is 1712 bytes (below); every instruction
// is VEX or EVEX encoded (no legacy SSE), and the routine ends in
// VZEROUPPER.
//
// Mask plan: K1 chain 1's lanes, K2 their block-b+1 half; K4 chain 2's
// lanes (shifted to bits 0-15), K5 their block-b+3 half; K6 and K7 the
// chains' deposit masks (in range, in cell); K3 a temporary. A masked
// YMM access uses the low eight bits of its mask, so a chain's lane mask
// also selects its first block.
//
// Register plan. Stage A runs chain 1, then chain 2, on the whole file:
//   gather:  AX BX CX DX R10-R13 = 9·voxel of lanes 0-7, then 8-15;
//            Z16-31 the four groups' rows, Z9-10 the CBz pairs
//   A:       Z0-2 dx,dy,dz  Z12 qdt2mc  Z13-14 temps -> hax,hay,haz
//            cbx,cby,cbz: chain 1's in Z3-8, chain 2's in Z19-24
// Stages B-D run on a chain's sixteen registers z0..z15 — Z0-15 for
// chain 1, Z16-31 for chain 2 — with these roles:
//   B boris: z3-5 ha, z6-8 cb -> t, z12 qdt2mc; z9-11 ux,uy,uz updated,
//            masked-stored to Ux,Uy,Uz
//   C move:  z3-5 ddx,ddy,ddz  z0-2 dx,dy,dz  z6-8 nx,ny,nz; crosser
//            bits to BX (chain 1) or AX (chain 2), the deposit mask
//   D:       z0-2 mx,my,mz  z3-5 hx,hy,hz  z11 qw  z12 v5  z13 1.0
//            z14 qh  z15 temp; per component four rows in z6-9, then
//            transposed into the frame
// and then the run over both chains' rows: X0-2 the run's JX,JY,JZ, as
// advanceBlockAVX2's stage E.

#include "textflag.h"

#include "push_amd64.h"

// A 16-lane access at field offset f+NEXT puts the field f of the block
// after the one at f in lanes 8-15.
#define NEXT 224

// Block b+2's field f is at f+PAIR2.
#define PAIR2 512

// Frame layout:
#define FVOX 0      // the checked lane voxels, 128 B
#define FROWS 128   // the transposed current rows, 1536 B
#define FDEAD 1664  // the store target of a run that has not started, 48 B

// rowslot<> is lane l's offset into FROWS: its JX slots are slot (l mod
// 16)/4 of row l mod 4 of its chain's JX rows (ROWS16), JY and JZ are
// 256 and 512 bytes on.
DATA rowslot<>+0(SB)/4, $0
DATA rowslot<>+4(SB)/4, $64
DATA rowslot<>+8(SB)/4, $128
DATA rowslot<>+12(SB)/4, $192
DATA rowslot<>+16(SB)/4, $16
DATA rowslot<>+20(SB)/4, $80
DATA rowslot<>+24(SB)/4, $144
DATA rowslot<>+28(SB)/4, $208
DATA rowslot<>+32(SB)/4, $32
DATA rowslot<>+36(SB)/4, $96
DATA rowslot<>+40(SB)/4, $160
DATA rowslot<>+44(SB)/4, $224
DATA rowslot<>+48(SB)/4, $48
DATA rowslot<>+52(SB)/4, $112
DATA rowslot<>+56(SB)/4, $176
DATA rowslot<>+60(SB)/4, $240
DATA rowslot<>+64(SB)/4, $768
DATA rowslot<>+68(SB)/4, $832
DATA rowslot<>+72(SB)/4, $896
DATA rowslot<>+76(SB)/4, $960
DATA rowslot<>+80(SB)/4, $784
DATA rowslot<>+84(SB)/4, $848
DATA rowslot<>+88(SB)/4, $912
DATA rowslot<>+92(SB)/4, $976
DATA rowslot<>+96(SB)/4, $800
DATA rowslot<>+100(SB)/4, $864
DATA rowslot<>+104(SB)/4, $928
DATA rowslot<>+108(SB)/4, $992
DATA rowslot<>+112(SB)/4, $816
DATA rowslot<>+116(SB)/4, $880
DATA rowslot<>+120(SB)/4, $944
DATA rowslot<>+124(SB)/4, $1008
GLOBL rowslot<>(SB), RODATA, $128

// LOADQ loads field off of a chain's block pair into z0 (y0 its YMM
// view): the first block's lanes of klo into the low half, zeroing the
// high half, and the second block's lanes of khi into the high half.
#define LOADQ(off, y0, z0, klo, khi) \
	VMOVUPS.Z off(DI), klo, y0; \
	VMOVUPS   (off+NEXT)(DI), khi, z0

// STOREQ stores z0 (y0 its YMM view) to field off of a chain's block
// pair under the first-block mask klo and the second-block mask khi.
#define STOREQ(z0, y0, klo, khi, off) \
	VMOVUPS y0, klo, off(DI); \
	VMOVUPS z0, khi, (off+NEXT)(DI)

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

// GATHER loads the four 16-byte groups of the interpolator of each of a
// chain's lanes, whose voxels sit at frame offset vox, into Z16-31 (Z16-19
// the first group's rows, ...), and the CBz0/DCBzDz pairs: lanes
// 0 1 | 4 5 | 8 9 | 12 13 in Z9, 2 3 | 6 7 | 10 11 | 14 15 in Z10.
#define GATHER(vox) \
	IDX8(vox); \
	QUADLO(0, Z16, Z17, Z18, Z19); \
	QUADLO(16, Z20, Z21, Z22, Z23); \
	QUADLO(32, Z24, Z25, Z26, Z27); \
	QUADLO(48, Z28, Z29, Z30, Z31); \
	VMOVSD       64(SI)(AX*8), X9; \
	VMOVHPS      64(SI)(BX*8), X9, X9; \
	VMOVSD       64(SI)(R10*8), X11; \
	VMOVHPS      64(SI)(R11*8), X11, X11; \
	VINSERTF32X4 $1, X11, Z9, Z9; \
	VMOVSD       64(SI)(CX*8), X10; \
	VMOVHPS      64(SI)(DX*8), X10, X10; \
	VMOVSD       64(SI)(R12*8), X11; \
	VMOVHPS      64(SI)(R13*8), X11, X11; \
	VINSERTF32X4 $1, X11, Z10, Z10; \
	IDX8(vox+32); \
	QUADHI(0, Z16, Z17, Z18, Z19); \
	QUADHI(16, Z20, Z21, Z22, Z23); \
	QUADHI(32, Z24, Z25, Z26, Z27); \
	QUADHI(48, Z28, Z29, Z30, Z31); \
	VMOVSD       64(SI)(AX*8), X11; \
	VMOVHPS      64(SI)(BX*8), X11, X11; \
	VINSERTF32X4 $2, X11, Z9, Z9; \
	VMOVSD       64(SI)(R10*8), X11; \
	VMOVHPS      64(SI)(R11*8), X11, X11; \
	VINSERTF32X4 $3, X11, Z9, Z9; \
	VMOVSD       64(SI)(CX*8), X11; \
	VMOVHPS      64(SI)(DX*8), X11, X11; \
	VINSERTF32X4 $2, X11, Z10, Z10; \
	VMOVSD       64(SI)(R12*8), X11; \
	VMOVHPS      64(SI)(R13*8), X11, X11; \
	VINSERTF32X4 $3, X11, Z10, Z10

// STAGEA evaluates the gathered fields at the chain's offsets into
// the chain's z3-5 (hax, hay, haz) and z6-8 (cb):
//   hax = qdt2mc * ((Ex0 + dy*DExDy) + dz*(DExDz + dy*D2ExDyDz))
//   hay = qdt2mc * ((Ey0 + dz*DEyDz) + dx*(DEyDx + dz*D2EyDzDx))
//   haz = qdt2mc * ((Ez0 + dx*DEzDx) + dy*(DEzDy + dx*D2EzDxDy))
//   cb  = CB0 + d*DCBdD
// The transposed rows are Ex0 DExDy DExDz D2ExDyDz, Ey0 DEyDz DEyDx
// D2EyDzDx, Ez0 DEzDx DEzDy D2EzDxDy and CBx0 DCBxDx CBy0 DCByDy. Each
// output may be a row register the stage has consumed by then (chain
// 2's land in Z19-24), or one of Z3-8.
#define STAGEA(base, kl, kh, z3, z4, z5, z6, z7, z8) \
	VBROADCASTSS 0(R8), Z12; \
	LOADQ(BDX+base, Y0, Z0, kl, kh); \
	LOADQ(BDY+base, Y1, Z1, kl, kh); \
	LOADQ(BDZ+base, Y2, Z2, kl, kh); \
	TRANSPOSE4(Z16, Z17, Z18, Z19, Z13, Z14); \
	VMULPS Z1, Z17, Z17; \
	VADDPS Z17, Z16, Z16; \
	VMULPS Z1, Z19, Z19; \
	VADDPS Z19, Z18, Z19; \
	VMULPS Z2, Z19, Z19; \
	VADDPS Z19, Z16, Z16; \
	VMULPS Z16, Z12, z3; \
	TRANSPOSE4(Z20, Z21, Z22, Z23, Z13, Z14); \
	VMULPS Z2, Z21, Z21; \
	VADDPS Z21, Z20, Z20; \
	VMULPS Z2, Z23, Z23; \
	VADDPS Z23, Z22, Z23; \
	VMULPS Z0, Z23, Z23; \
	VADDPS Z23, Z20, Z20; \
	VMULPS Z20, Z12, z4; \
	TRANSPOSE4(Z24, Z25, Z26, Z27, Z13, Z14); \
	VMULPS Z0, Z25, Z25; \
	VADDPS Z25, Z24, Z24; \
	VMULPS Z0, Z27, Z27; \
	VADDPS Z27, Z26, Z27; \
	VMULPS Z1, Z27, Z27; \
	VADDPS Z27, Z24, Z24; \
	VMULPS Z24, Z12, z5; \
	TRANSPOSE4(Z28, Z29, Z30, Z31, Z13, Z14); \
	VMULPS  Z0, Z29, Z29; \
	VADDPS  Z29, Z28, z6; \
	VMULPS  Z1, Z31, Z31; \
	VADDPS  Z31, Z30, z7; \
	VSHUFPS $0xDD, Z10, Z9, Z11; \
	VSHUFPS $0x88, Z10, Z9, Z9; \
	VMULPS  Z2, Z11, Z11; \
	VADDPS  Z11, Z9, z8

// The stages B-D run on one chain's sixteen registers, z0..z15: Z0-15
// for chain 1, Z16-31 for chain 2, with the roles of the register plan.
// yk is zk's YMM view.

// STAGEB is both half kicks and the Boris rotation:
//   u  = U + ha;  gi = 1 / sqrt(1 + ((ux*ux + uy*uy) + uz*uz))
//   t  = (qdt2mc*gi) * cb;  s = 2 / (1 + ((tx*tx + ty*ty) + tz*tz))
//   w  = u + u x t;  u += s * (w x t);  U = u + ha
// storing the new momenta to the chain's lanes only.
#define STAGEB(base, kl, kh, z0, z1, z2, z3, z4, z5, z6, z7, z8, z9, z10, z11, z12, z13, z14, z15, y9, y10, y11) \
	VBROADCASTSS 0(R8), z12; \
	LOADQ(BUX+base, y9, z9, kl, kh); \
	VADDPS z3, z9, z9; \
	LOADQ(BUY+base, y10, z10, kl, kh); \
	VADDPS z4, z10, z10; \
	LOADQ(BUZ+base, y11, z11, kl, kh); \
	VADDPS z5, z11, z11; \
	VMULPS       z9, z9, z0; \
	VMULPS       z10, z10, z1; \
	VADDPS       z1, z0, z0; \
	VMULPS       z11, z11, z1; \
	VADDPS       z1, z0, z0; \
	VBROADCASTSS one<>(SB), z1; \
	VADDPS       z0, z1, z0; \
	VSQRTPS      z0, z0; \
	VDIVPS       z0, z1, z0; \
	VMULPS z12, z0, z0; \
	VMULPS z0, z6, z6; \
	VMULPS z0, z7, z7; \
	VMULPS z0, z8, z8; \
	VMULPS       z6, z6, z0; \
	VMULPS       z7, z7, z1; \
	VADDPS       z1, z0, z0; \
	VMULPS       z8, z8, z1; \
	VADDPS       z1, z0, z0; \
	VBROADCASTSS one<>(SB), z1; \
	VADDPS       z0, z1, z0; \
	VBROADCASTSS two<>(SB), z1; \
	VDIVPS       z0, z1, z0; \
	VMULPS z8, z10, z1; \
	VMULPS z7, z11, z2; \
	VSUBPS z2, z1, z1; \
	VADDPS z1, z9, z1; \
	VMULPS z6, z11, z2; \
	VMULPS z8, z9, z13; \
	VSUBPS z13, z2, z2; \
	VADDPS z2, z10, z2; \
	VMULPS z7, z9, z13; \
	VMULPS z6, z10, z14; \
	VSUBPS z14, z13, z13; \
	VADDPS z13, z11, z13; \
	VMULPS z8, z2, z14; \
	VMULPS z7, z13, z15; \
	VSUBPS z15, z14, z14; \
	VMULPS z14, z0, z14; \
	VADDPS z14, z9, z9; \
	VMULPS z6, z13, z14; \
	VMULPS z8, z1, z15; \
	VSUBPS z15, z14, z14; \
	VMULPS z14, z0, z14; \
	VADDPS z14, z10, z10; \
	VMULPS z7, z1, z14; \
	VMULPS z6, z2, z15; \
	VSUBPS z15, z14, z14; \
	VMULPS z14, z0, z14; \
	VADDPS z14, z11, z11; \
	VADDPS z3, z9, z9; \
	VADDPS z4, z10, z10; \
	VADDPS z5, z11, z11; \
	STOREQ(z9, y9, kl, kh, BUX+base); \
	STOREQ(z10, y10, kl, kh, BUY+base); \
	STOREQ(z11, y11, kl, kh, BUZ+base)

// STAGEC is the final 1/gamma, the displacement dd = (u*gi) * cdtd2
// (kept in z3-5 and written to out at offset oo for the caller's mover
// records), the tentative offsets n = d + dd and the crosser test:
// |n| > 1 (or NaN) iff oneBits - (bits(n) &^ signbit) wraps negative,
// read per lane from the sign bit. The chain's crosser bits go to the
// register bits, its deposit mask (in range, not crossing) to kd.
#define STAGEC(base, kl, kh, oo, kd, bits, z0, z1, z2, z3, z4, z5, z6, z7, z8, z9, z10, z11, z13, z14, y0, y1, y2) \
	VMULPS       z9, z9, z0; \
	VMULPS       z10, z10, z1; \
	VADDPS       z1, z0, z0; \
	VMULPS       z11, z11, z1; \
	VADDPS       z1, z0, z0; \
	VBROADCASTSS one<>(SB), z1; \
	VADDPS       z0, z1, z0; \
	VSQRTPS      z0, z0; \
	VDIVPS       z0, z1, z0; \
	VMULPS       z0, z9, z3; \
	VBROADCASTSS 8(R8), z13; \
	VMULPS       z13, z3, z3; \
	VMULPS       z0, z10, z4; \
	VBROADCASTSS 12(R8), z13; \
	VMULPS       z13, z4, z4; \
	VMULPS       z0, z11, z5; \
	VBROADCASTSS 16(R8), z13; \
	VMULPS       z13, z5, z5; \
	VMOVUPS      z3, (ODDX+oo)(R9); \
	VMOVUPS      z4, (ODDY+oo)(R9); \
	VMOVUPS      z5, (ODDZ+oo)(R9); \
	LOADQ(BDX+base, y0, z0, kl, kh); \
	LOADQ(BDY+base, y1, z1, kl, kh); \
	LOADQ(BDZ+base, y2, z2, kl, kh); \
	VADDPS z3, z0, z6; \
	VADDPS z4, z1, z7; \
	VADDPS z5, z2, z8; \
	VPBROADCASTD absmask<>(SB), z13; \
	VPBROADCASTD one<>(SB), z14; \
	VPANDD       z6, z13, z9; \
	VPSUBD       z9, z14, z9; \
	VPANDD       z7, z13, z10; \
	VPSUBD       z10, z14, z10; \
	VPORD        z10, z9, z9; \
	VPANDD       z8, z13, z10; \
	VPSUBD       z10, z14, z10; \
	VPORD        z10, z9, z9; \
	VPMOVD2M     z9, K3; \
	KANDNW       kl, K3, kd; \
	KANDW        kl, K3, K3; \
	KMOVW        K3, bits

// JROWS computes the four slots of one current component into z3..z6,
// given its axis's h in z0 and its pair of midpoint offsets (p, q) in
// (z1, z2), qw in z7, v5 in z8 and 1.0 in z9 (z10 = qh = qw*h and z11
// are temporaries):
//   z3 = qh*(1-p)*(1-q) + v5   z4 = qh*(1+p)*(1-q) - v5
//   z5 = qh*(1-p)*(1+q) - v5   z6 = qh*(1+p)*(1+q) + v5
// zero in the lanes outside the deposit mask kd.
#define JROWS(z0, z1, z2, kd, z3, z4, z5, z6, z7, z8, z9, z10, z11) \
	VMULPS   z0, z7, z10; \
	VSUBPS   z1, z9, z3; \
	VMULPS   z3, z10, z3; \
	VSUBPS   z2, z9, z11; \
	VMULPS   z11, z3, z3; \
	VADDPS.Z z8, z3, kd, z3; \
	VADDPS   z1, z9, z4; \
	VMULPS   z4, z10, z4; \
	VMULPS   z11, z4, z4; \
	VSUBPS.Z z8, z4, kd, z4; \
	VADDPS   z2, z9, z11; \
	VSUBPS   z1, z9, z5; \
	VMULPS   z5, z10, z5; \
	VMULPS   z11, z5, z5; \
	VSUBPS.Z z8, z5, kd, z5; \
	VADDPS   z1, z9, z6; \
	VMULPS   z6, z10, z6; \
	VMULPS   z11, z6, z6; \
	VADDPS.Z z8, z6, kd, z6

// ROWS16 transposes a component's four current rows z0..z3 (z4, z5
// temporaries) — afterwards row k's 128-bit slot s is the component's
// four slots of chain lane k + 4s — and stores them to the frame at
// FROWS+off, row k at +64k.
#define ROWS16(z0, z1, z2, z3, z4, z5, off) \
	TRANSPOSE4(z0, z1, z2, z3, z4, z5); \
	VMOVUPS z0, (FROWS+off)(SP); \
	VMOVUPS z1, (FROWS+off+64)(SP); \
	VMOVUPS z2, (FROWS+off+128)(SP); \
	VMOVUPS z3, (FROWS+off+192)(SP)

// STAGED commits the new offsets of the lanes of kd, then computes the
// in-cell current — h = dd/2 (z3-5), m = d + h (z0-2), qw = q*w (z11),
// v5 = (((qw*hx)*hy)*hz) * (1/3) (z12) — one component at a time: the
// four rows of JX (pair my, mz), JY (mz, mx) and JZ (mx, my) in z6-9,
// transposed and stored at FROWS+rows, +256 and +512. A component's h is dead once its qh (z14) is formed, so
// it is the transpose's second temporary.
#define STAGED(base, kl, kh, kd, rows, z0, z1, z2, z3, z4, z5, z6, z7, z8, z9, z10, z11, z12, z13, z14, z15, y6, y7, y8, y11) \
	KANDW kd, kh, K3; \
	STOREQ(z6, y6, kd, K3, BDX+base); \
	STOREQ(z7, y7, kd, K3, BDY+base); \
	STOREQ(z8, y8, kd, K3, BDZ+base); \
	VBROADCASTSS half<>(SB), z13; \
	VMULPS       z13, z3, z3; \
	VMULPS       z13, z4, z4; \
	VMULPS       z13, z5, z5; \
	LOADQ(BW+base, y11, z11, kl, kh); \
	VBROADCASTSS 4(R8), z13; \
	VMULPS       z13, z11, z11; \
	VADDPS       z3, z0, z0; \
	VADDPS       z4, z1, z1; \
	VADDPS       z5, z2, z2; \
	VMULPS       z3, z11, z12; \
	VMULPS       z4, z12, z12; \
	VMULPS       z5, z12, z12; \
	VBROADCASTSS third<>(SB), z13; \
	VMULPS       z13, z12, z12; \
	VBROADCASTSS one<>(SB), z13; \
	JROWS(z3, z1, z2, kd, z6, z7, z8, z9, z11, z12, z13, z14, z15); \
	ROWS16(z6, z7, z8, z9, z10, z3, rows); \
	JROWS(z4, z2, z0, kd, z6, z7, z8, z9, z11, z12, z13, z14, z15); \
	ROWS16(z6, z7, z8, z9, z10, z4, rows+256); \
	JROWS(z5, z0, z1, kd, z6, z7, z8, z9, z11, z12, z13, z14, z15); \
	ROWS16(z6, z7, z8, z9, z10, z5, rows+512)

// func advanceBlock32AVX512(b *particle.Block, ip []interp.Coeffs, ac []accum.Cell, run *laneRun, con *laneConsts, out *laneVecs, l0, l1 int) uint64
TEXT ·advanceBlock32AVX512(SB), 0, $1712-104
	MOVQ b+0(FP), DI

	// ---- Prologue: lane masks, voxel check.
	// AX = bits [l0, l1) of the 32 lanes; K1/K2 and K4/K5 as above.
	MOVQ  l0+80(FP), R11
	MOVQ  l1+88(FP), CX
	MOVL  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	MOVL  $1, DX
	MOVQ  R11, CX
	SHLQ  CX, DX
	DECQ  DX
	NOTQ  DX
	ANDQ  DX, AX
	KMOVW AX, K1
	MOVL  AX, DX
	ANDL  $0xff00, DX
	KMOVW DX, K2
	SHRL  $16, AX
	KMOVW AX, K4
	ANDL  $0xff00, AX
	KMOVW AX, K5

	// Lanes outside [l0, l1) take lane l0's voxel (Z3), so no table load
	// can leave the tables on their account; then every lane must satisfy
	// v < n unsigned, n = min(len(ip), len(ac), MaxInt32). Chain 1's
	// voxels end in Z1, chain 2's in Z3.
	VMOVDQU      BVOX(DI), Y0
	VMOVDQU32    (BVOX+NEXT)(DI), K2, Z0
	VPBROADCASTD R11, Z1
	VPERMD       Z0, Z1, Z3
	VMOVDQA32    Z3, Z1
	VMOVDQA32    Z0, K1, Z1
	VMOVDQU32.Z  (BVOX+PAIR2)(DI), K4, Y0
	VMOVDQU32    (BVOX+PAIR2+NEXT)(DI), K5, Z0
	VMOVDQA32    Z0, K4, Z3
	MOVQ         ip_len+16(FP), AX
	MOVQ         ac_len+40(FP), DX
	CMPQ         DX, AX
	CMOVQLT      DX, AX
	MOVL         $0x7fffffff, DX
	CMPQ         AX, DX
	CMOVQGT      DX, AX
	VPBROADCASTD AX, Z2
	VPCMPUD      $1, Z2, Z1, K3 // v < n
	KMOVW        K3, AX
	VPCMPUD      $1, Z2, Z3, K3
	KMOVW        K3, DX
	SHLL         $16, DX
	ORL          DX, AX
	CMPL         AX, $-1
	JNE          badvoxel
	VMOVDQU32    Z1, FVOX(SP)
	VMOVDQU32    Z3, (FVOX+64)(SP)

	// The run's count and window, which the fold below leaves to this
	// prologue: a lane of [l0, l1) starts a run when its voxel differs
	// from the lane before it (lane l0: from the run's voxel), and the
	// window grows to the least and greatest lane voxel — the lanes
	// outside the range hold lane l0's, which changes neither.
	MOVQ          run+56(FP), R12
	VPBROADCASTD  RV(R12), Z4
	VMOVDQA32     Z4, Z5
	VMOVDQA32     Z1, K1, Z5         // chain 1's voxels, the run's outside the range
	VALIGND       $15, Z4, Z5, Z6    // each lane's predecessor
	VPCMPD        $4, Z6, Z5, K1, K3 // != in range
	KMOVW         K3, AX
	POPCNTL       AX, AX
	VALIGND       $15, Z5, Z3, Z6
	VPCMPD        $4, Z6, Z3, K4, K3
	KMOVW         K3, DX
	POPCNTL       DX, DX
	ADDL          DX, AX
	ADDQ          AX, RN(R12)
	VPMINSD       Z3, Z1, Z6
	VPMAXSD       Z3, Z1, Z7
	VEXTRACTI64X4 $1, Z6, Y8
	VPMINSD       Y8, Y6, Y6
	VEXTRACTI64X4 $1, Z7, Y8
	VPMAXSD       Y8, Y7, Y7
	VEXTRACTI128  $1, Y6, X8
	VPMINSD       X8, X6, X6
	VEXTRACTI128  $1, Y7, X8
	VPMAXSD       X8, X7, X7
	VPSHUFD       $0x4E, X6, X8
	VPMINSD       X8, X6, X6
	VPSHUFD       $0x4E, X7, X8
	VPMAXSD       X8, X7, X7
	VPSHUFD       $0xB1, X6, X8
	VPMINSD       X8, X6, X6
	VPSHUFD       $0xB1, X7, X8
	VPMAXSD       X8, X7, X7
	VMOVD         X6, AX
	VMOVD         X7, DX
	MOVL          RLO(R12), CX
	CMPL          AX, CX
	CMOVLLT       AX, CX
	MOVL          CX, RLO(R12)
	MOVL          RHI(R12), CX
	CMPL          DX, CX
	CMOVLGT       DX, CX
	MOVL          CX, RHI(R12)

	MOVQ ip_base+8(FP), SI
	MOVQ con+64(FP), R8
	MOVQ out+72(FP), R9

	// ---- Stage A, chain 1 then chain 2: chain 1's fields in Z3-8,
	// chain 2's in Z19-24.
	GATHER(FVOX)
	STAGEA(0, K1, K2, Z3, Z4, Z5, Z6, Z7, Z8)
	GATHER(FVOX+64)
	STAGEA(PAIR2, K4, K5, Z19, Z20, Z21, Z22, Z23, Z24)

	// ---- Stages B-D, the two chains side by side.
	STAGEB(0, K1, K2, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, Y9, Y10, Y11)
	STAGEB(PAIR2, K4, K5, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z24, Z25, Z26, Z27, Z28, Z29, Z30, Z31, Y25, Y26, Y27)
	STAGEC(0, K1, K2, 0, K6, BX, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z13, Z14, Y0, Y1, Y2)
	STAGEC(PAIR2, K4, K5, 64, K7, AX, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z24, Z25, Z26, Z27, Z29, Z30, Y16, Y17, Y18)
	STAGED(0, K1, K2, K6, 0, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, Y6, Y7, Y8, Y11)
	STAGED(PAIR2, K4, K5, K7, 768, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z24, Z25, Z26, Z27, Z28, Z29, Z30, Z31, Y22, Y23, Y24, Y27)

	// ---- The run over lanes [l0, l1). It continues from the previous
	// call: reload its cell. With no run yet, the first lane's store of
	// the "finished" run lands in the dead cell.
	SHLQ    $16, AX
	ORQ     BX, AX
	MOVQ    AX, ret+96(FP)
	MOVQ    ac_base+32(FP), SI
	MOVQ    run+56(FP), R8
	MOVLQSX RV(R8), DX
	MOVQ    l0+80(FP), CX
	MOVQ    l1+88(FP), R11
	LEAQ    rowslot<>(SB), R12
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
	// (zero for a crosser) — advanceBlockAVX2's fold over 32 lanes.
lane:
	MOVLQSX FVOX(SP)(CX*4), DX
	VMOVUPS X0, 0(R10)
	VMOVUPS X1, 16(R10)
	VMOVUPS X2, 32(R10)
	LEAQ    (DX)(DX*2), R10
	SHLQ    $4, R10
	ADDQ    SI, R10
	VMOVUPS 0(R10), X0
	VMOVUPS 16(R10), X1
	VMOVUPS 32(R10), X2
	MOVL    (R12)(CX*4), R9
	VMOVUPS FROWS(SP)(R9*1), X3
	VADDPS  X0, X3, X0
	VMOVUPS FROWS+256(SP)(R9*1), X4
	VADDPS  X1, X4, X1
	VMOVUPS FROWS+512(SP)(R9*1), X5
	VADDPS  X2, X5, X2
	INCQ    CX
	CMPQ    CX, R11
	JLT     lane

	// Store the run's cell back; the next call reloads it.
	VMOVUPS X0, 0(R10)
	VMOVUPS X1, 16(R10)
	VMOVUPS X2, 32(R10)
	MOVL    DX, RV(R8)
	VZEROUPPER
	RET

badvoxel:
	MOVQ $-1, ret+96(FP) // badVoxel
	VZEROUPPER
	RET
