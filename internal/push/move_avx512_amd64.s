//go:build !purego

// AVX-512 mover batch: moveBatchAVX2 widened to 16 lanes, one ZMM
// chain. It finishes the fast movers of the top batch of up to sixteen
// (see moveBatch16AVX512's declaration for the contract) and prefetches
// the particles of the next batch. Like the 8-lane routine it plans all
// lanes at once — up to two faces, segments 1 and 2 always, segment 3
// only when some lane crosses a second face — and then finishes the
// fast lanes from the top lane down, stopping at the first slow one.
//
// Bit-exactness contract: every lane performs moveBatchAVX2's
// operations, which are moveP's and scatterCell's in the same
// association and with the same operands first — s·r, d + seg,
// r − seg, the face fraction (sgn − d)/r with VMAXPS(f, 0) =
// max32(f, 0) (−0 → +0 included), and stage D's twelve rows — and
// every one of them is IEEE correctly rounded per lane (no FMA). A NaN
// input gives a NaN term and a slow lane, so the only NaN a fast lane
// meets is the default NaN. The apply adds each segment's cell into ac
// with the cell first, as scatterCell's += does, lane by lane from the
// top down, so every accumulator slot's addition chain is moveP's,
// mover by descending index: the result does not depend on whether a
// mover went through this routine, the 8-lane one or moveP. A lane adds
// every segment the batch computes, an unused one as +0 terms into its
// last cell, which changes no value: no accumulator cell holds −0 (see
// the accum package).
//
// What changes from the 8-lane routine is the width, the masks and the
// data motion: lane masks are k-registers (VBLENDVPS → VBLENDMPS or a
// merge-masked move, VMOVMSKPS → KMOVW, the NaN rows → VCMPPS into a
// k-register, VPCMPGTD → an unsigned VPCMPUD); the records are four
// vector loads and a transpose; the particles' fields, their face
// bytes and the next batch's indices are gathers (VGATHERDPS,
// VPGATHERDD) and the finished lanes' offsets and voxels scatters; the
// step and wrap tables are registers for VPERMD; the terms are
// transposed in registers (TERMS); and the segment count and the voxel
// window are popcounts and a masked reduction, not per-lane updates.
//
// Bounds: a lane is gathered only when its index is below min(8·len(blk),
// 2^28) (so its word offset is an int32), its face byte read only when
// its voxel v has 3 ≤ v < len(faces) (the word gathered ends at byte v),
// and every other lane gets face byte 0x40 or is slow outright; every
// voxel a lane deposits into must be below min(len(faces), len(ac),
// 2^29) (6·v is then a uint32). A masked gather or scatter touches only
// its selected elements. Every instruction is VEX or EVEX encoded, and
// every return follows VZEROUPPER.
//
// Register plan:
//   gather: DI blk, SI the batch's records, BX faces, CX lanes, R10 the
//           batch's byte offset in mv, R11 max(len(faces) − 3, 0) (Z15),
//           R13 the index bound; Z16 the lanes' particle offsets, in words
//           from blk, until the scatters; Z17 face bytes
//   faces:  Z13 s, Z12 dir, Z11 face code (6: none); Z0-7, Z14 temps;
//           K5 a first face (segment 2 used), K6 a second (segment 3
//           used), K7 slow, K1-K4 temps
//   consts: Z31 0, Z30 1.0, Z29 −1.0, Z28 2.0, Z27-24 int 1, 2, 4, 6,
//           Z23 0.5, Z22 1/3, Z21 wrapd, Z20 step, Z19 wrap, Z18 q
//   terms:  Z0-2 m, Z3-5 h, Z11 qw, Z12 v5, Z14 qh, rows Z6-9 and
//           Z24-27, Z10 and Z13 the interleaved JX|JY rows
//   apply:  CX lane, BX the stop lane, SI ac, DX the cell (6·voxel), R9
//           the lane's slot, R12 slot<>

#include "textflag.h"

#include "push_amd64.h"

// Frame layout (a row of sixteen lanes is 64 B):
#define MN 0         // the lane count
#define MD 128       // dx, dy, dz
#define MVOX 320     // start voxel
#define MW 384
#define MDD 448      // ddx, ddy, ddz
#define MSEG 640     // segment 1 = s·dd
#define MD1 832      // d + seg, the face axis at −dir
#define MREM 1024    // dd − seg
#define MSEG2 1216   // segment 2, offsets and remainder after it
#define MD2 1408
#define MREM2 1600   // segment 3
#define MV1 1792     // voxel after the first face
#define MV2 1856     // ... and after the second, the final voxel
#define MFD 1920     // final offsets
#define MCELL 2112   // the segments' cells, 6·voxel (ac + 8·that), 3 rows
#define MC1 2304     // the segments' terms, 768 B each (TERMS)
#define MC2 3072
#define MC3 3840
#define MPF 4608     // the next batch's particle offsets, in words from blk

DATA negone<>+0(SB)/4, $0xbf800000 // float32(-1)
GLOBL negone<>(SB), RODATA, $4

DATA ints<>+0(SB)/4, $1
DATA ints<>+4(SB)/4, $2
DATA ints<>+8(SB)/4, $4
DATA ints<>+12(SB)/4, $6
GLOBL ints<>(SB), RODATA, $16

// unperm<> is the 4×4 transpose of lane numbers: TRANSPOSE4 of the
// four record registers leaves lane 4j+s's field at element 4s+j, and
// a VPERMPS by this table puts it back at element 4j+s.
DATA unperm<>+0(SB)/4, $0
DATA unperm<>+4(SB)/4, $4
DATA unperm<>+8(SB)/4, $8
DATA unperm<>+12(SB)/4, $12
DATA unperm<>+16(SB)/4, $1
DATA unperm<>+20(SB)/4, $5
DATA unperm<>+24(SB)/4, $9
DATA unperm<>+28(SB)/4, $13
DATA unperm<>+32(SB)/4, $2
DATA unperm<>+36(SB)/4, $6
DATA unperm<>+40(SB)/4, $10
DATA unperm<>+44(SB)/4, $14
DATA unperm<>+48(SB)/4, $3
DATA unperm<>+52(SB)/4, $7
DATA unperm<>+56(SB)/4, $11
DATA unperm<>+60(SB)/4, $15
GLOBL unperm<>(SB), RODATA, $64

// slot<> is lane l's row slot, 64·(l mod 4) + 16·(l/4).
DATA slot<>+0(SB)/4, $0
DATA slot<>+4(SB)/4, $64
DATA slot<>+8(SB)/4, $128
DATA slot<>+12(SB)/4, $192
DATA slot<>+16(SB)/4, $16
DATA slot<>+20(SB)/4, $80
DATA slot<>+24(SB)/4, $144
DATA slot<>+28(SB)/4, $208
DATA slot<>+32(SB)/4, $32
DATA slot<>+36(SB)/4, $96
DATA slot<>+40(SB)/4, $160
DATA slot<>+44(SB)/4, $224
DATA slot<>+48(SB)/4, $48
DATA slot<>+52(SB)/4, $112
DATA slot<>+56(SB)/4, $176
DATA slot<>+60(SB)/4, $240
GLOBL slot<>(SB), RODATA, $64

// idxword<> is the word of record l's index in a run of records.
DATA idxword<>+0(SB)/4, $3
DATA idxword<>+4(SB)/4, $7
DATA idxword<>+8(SB)/4, $11
DATA idxword<>+12(SB)/4, $15
DATA idxword<>+16(SB)/4, $19
DATA idxword<>+20(SB)/4, $23
DATA idxword<>+24(SB)/4, $27
DATA idxword<>+28(SB)/4, $31
DATA idxword<>+32(SB)/4, $35
DATA idxword<>+36(SB)/4, $39
DATA idxword<>+40(SB)/4, $43
DATA idxword<>+44(SB)/4, $47
DATA idxword<>+48(SB)/4, $51
DATA idxword<>+52(SB)/4, $55
DATA idxword<>+56(SB)/4, $59
DATA idxword<>+60(SB)/4, $63
GLOBL idxword<>(SB), RODATA, $64

// pairlo<> and pairhi<> interleave the 128-bit slots of a JX row x and
// a JY row y: [x0 y0 x1 y1] and [x2 y2 x3 y3].
DATA pairlo<>+0(SB)/4, $0
DATA pairlo<>+4(SB)/4, $1
DATA pairlo<>+8(SB)/4, $2
DATA pairlo<>+12(SB)/4, $3
DATA pairlo<>+16(SB)/4, $16
DATA pairlo<>+20(SB)/4, $17
DATA pairlo<>+24(SB)/4, $18
DATA pairlo<>+28(SB)/4, $19
DATA pairlo<>+32(SB)/4, $4
DATA pairlo<>+36(SB)/4, $5
DATA pairlo<>+40(SB)/4, $6
DATA pairlo<>+44(SB)/4, $7
DATA pairlo<>+48(SB)/4, $20
DATA pairlo<>+52(SB)/4, $21
DATA pairlo<>+56(SB)/4, $22
DATA pairlo<>+60(SB)/4, $23
GLOBL pairlo<>(SB), RODATA, $64
DATA pairhi<>+0(SB)/4, $8
DATA pairhi<>+4(SB)/4, $9
DATA pairhi<>+8(SB)/4, $10
DATA pairhi<>+12(SB)/4, $11
DATA pairhi<>+16(SB)/4, $24
DATA pairhi<>+20(SB)/4, $25
DATA pairhi<>+24(SB)/4, $26
DATA pairhi<>+28(SB)/4, $27
DATA pairhi<>+32(SB)/4, $12
DATA pairhi<>+36(SB)/4, $13
DATA pairhi<>+40(SB)/4, $14
DATA pairhi<>+44(SB)/4, $15
DATA pairhi<>+48(SB)/4, $28
DATA pairhi<>+52(SB)/4, $29
DATA pairhi<>+56(SB)/4, $30
DATA pairhi<>+60(SB)/4, $31
GLOBL pairhi<>(SB), RODATA, $64

DATA three<>+0(SB)/4, $3
GLOBL three<>(SB), RODATA, $4

// noface<> is face byte 0x40 in the top byte of a word.
DATA noface<>+0(SB)/4, $0x40000000
GLOBL noface<>(SB), RODATA, $4

DATA maxint<>+0(SB)/4, $0x7fffffff
GLOBL maxint<>(SB), RODATA, $4

// FACES sets z to the face bytes of the voxels v of the lanes of km:
// the top byte of the word at faces − 3 + v, for 3 ≤ v < len(faces)
// (Z15 = max(len(faces) − 3, 0)), so the gather reads inside faces;
// 0x40 for every other lane — no particle sits in voxels 0-2, which are
// ghosts.
#define FACES(v, km, z) \
	VPBROADCASTD three<>(SB), Z14; \
	VPSUBD       Z14, v, Z14; \
	VPCMPUD      $1, Z15, Z14, km, K1; \
	VPBROADCASTD noface<>(SB), z; \
	VPGATHERDD   -3(BX)(v*1), K1, z; \
	VPSRLD       $24, z, z

// OFFSETS sets z to idx + 56·(idx/8) for the indices idx (z and idx
// may be the same register), the word offset of particle idx from blk.
#define OFFSETS(idx, z) \
	VPSRLD $3, idx, Z5; \
	VPSLLD $6, Z5, Z6; \
	VPSLLD $3, Z5, Z5; \
	VPSUBD Z5, Z6, Z6; \
	VPADDD idx, Z6, z

// PREFETCH prefetches the lines of the next batch's particle l that the
// batch reads (a prefetch never faults, so an index outside blk needs no
// check).
#define PREFETCH(l) \
	MOVL       (MPF+4*l)(SP), R9; \
	PREFETCHT0 (DI)(R9*4); \
	PREFETCHT0 64(DI)(R9*4); \
	PREFETCHT0 224(DI)(R9*4)

// FIRSTFACE is faceFraction on one axis of the displacement at frame
// offset r from the offsets at d, and the strict-less selection: eff =
// ok ? max32(f, 0) : 2, where f = (sgn − d)/r and ok = r ≠ 0 and f < 1;
// a lane whose eff < s takes s, dir = sgn and the face code 2·axis +
// (r > 0), given as code = 2·axis.
#define FIRSTFACE(r, d, off, code) \
	VMOVUPS   (r+off)(SP), Z0; \
	VMOVUPS   (d+off)(SP), Z1; \
	VCMPPS    $0x1e, Z31, Z0, K1; \
	VCMPPS    $0x0c, Z31, Z0, K2; \
	VBLENDMPS Z30, Z29, K1, Z4; \
	VSUBPS    Z1, Z4, Z5; \
	VDIVPS    Z0, Z5, Z5; \
	VCMPPS    $0x11, Z30, Z5, K2, K3; \
	VMAXPS    Z31, Z5, Z5; \
	VBLENDMPS Z5, Z28, K3, Z5; \
	VCMPPS    $0x11, Z13, Z5, K4; \
	VMOVAPS   Z5, K4, Z13; \
	VMOVAPS   Z4, K4, Z12; \
	VMOVDQA32 code, Z7; \
	VPORD     Z27, code, K1, Z7; \
	VMOVDQA32 Z7, K4, Z11

// SPLIT splits one axis of the displacement at r at s: seg = s·r, rem =
// r − seg, and d' = d + seg or, on the face axis (code>>1 == axis),
// −dir (Z12).
#define SPLIT(r, d, seg, d1, rem, off, axis) \
	VMOVUPS   (r+off)(SP), Z0; \
	VMULPS    Z0, Z13, Z1; \
	VMOVUPS   Z1, (seg+off)(SP); \
	VMOVUPS   (d+off)(SP), Z2; \
	VADDPS    Z1, Z2, Z2; \
	VSUBPS    Z1, Z0, Z0; \
	VMOVUPS   Z0, (rem+off)(SP); \
	VPSRLD    $1, Z11, Z3; \
	VPCMPEQD  axis, Z3, K1; \
	VMOVAPS   Z12, K1, Z2; \
	VMOVUPS   Z2, (d1+off)(SP)

// REACH adds to K7 whether the displacement at r reaches a face on one
// axis from the offsets at d: a third face.
#define REACH(r, d, off) \
	VMOVUPS   (r+off)(SP), Z0; \
	VMOVUPS   (d+off)(SP), Z2; \
	VCMPPS    $0x1e, Z31, Z0, K1; \
	VCMPPS    $0x0c, Z31, Z0, K2; \
	VBLENDMPS Z30, Z29, K1, Z5; \
	VSUBPS    Z2, Z5, Z5; \
	VDIVPS    Z0, Z5, Z5; \
	VCMPPS    $0x11, Z30, Z5, K2, K3; \
	KORW      K3, K7, K7

// CROSS moves the voxels v through the faces with codes Z11, given the
// face bytes f of v: the step, or the wrap delta where the face is a
// grid face (zero for code 6). It adds to K7 a grid face that is not
// Wrap and a face byte 0x40.
#define CROSS(f, v) \
	VPSRLVD   Z11, f, Z3; \
	VPSLLD    $31, Z3, Z3; \
	VPSRLVD   Z11, Z19, Z4; \
	VPSLLD    $31, Z4, Z4; \
	VPERMD    Z20, Z11, Z5; \
	VPERMD    Z21, Z11, Z0; \
	VPMOVD2M  Z3, K1; \
	VMOVDQA32 Z0, K1, Z5; \
	VPADDD    Z5, v, v; \
	VPANDND   Z3, Z4, Z4; \
	VPSLLD    $25, f, Z5; \
	VPORD     Z5, Z4, Z4; \
	VPMOVD2M  Z4, K1; \
	KORW      K1, K7, K7

// JROWS is one component's four rows of stage D — qh = qw·h over the
// pair (a, b), each row ((qh·(1∓a))·(1∓b)) ± v5 as scatterCell's, zero
// in the lanes outside km — adding to K7 the lanes with a NaN row, and
// transposed: afterwards row k's 128-bit slot s is lane 4s+k's four
// slots.
#define JROWS(h, a, b, km, r0, r1, r2, r3) \
	VMULPS     h, Z11, Z14; \
	VSUBPS     a, Z30, r0; \
	VMULPS     r0, Z14, r0; \
	VADDPS     a, Z30, r1; \
	VMULPS     r1, Z14, r1; \
	VSUBPS     b, Z30, Z15; \
	VADDPS     b, Z30, Z14; \
	VMULPS     Z14, r0, r2; \
	VMULPS     Z14, r1, r3; \
	VMULPS     Z15, r0, r0; \
	VMULPS     Z15, r1, r1; \
	VADDPS.Z   Z12, r0, km, r0; \
	VSUBPS.Z   Z12, r1, km, r1; \
	VSUBPS.Z   Z12, r2, km, r2; \
	VADDPS.Z   Z12, r3, km, r3; \
	VCMPPS     $3, r1, r0, K1; \
	KORW       K1, K7, K7; \
	VCMPPS     $3, r3, r2, K1; \
	KORW       K1, K7, K7; \
	TRANSPOSE4(r0, r1, r2, r3, Z14, Z15)

// PAIRS stores the transposed JX row x and JY row y (row k) at frame
// offset off: lane 4s+k's JX and JY slots side by side at off + 32s.
#define PAIRS(x, y, off) \
	VMOVDQU32 pairlo<>(SB), Z10; \
	VPERMI2PS y, x, Z10; \
	VMOVUPS   Z10, off(SP); \
	VMOVDQU32 pairhi<>(SB), Z13; \
	VPERMI2PS y, x, Z13; \
	VMOVUPS   Z13, (off+64)(SP)

// TERMS is scatterCell's twelve terms for the segment at frame offset
// seg from offsets at frame offset d, zero in the lanes outside km
// (which then add nothing), at frame offset c: lane l's JX and JY slots
// at c + 2·slot(l), its JZ slots at c + 512 + slot(l), slot(l) =
// 64·(l mod 4) + 16·(l/4); a NaN term makes the lane slow. It runs after
// the face planning, whose constants Z24-Z27 it reuses.
#define TERMS(d, seg, c, km) \
	VMULPS  (seg+0)(SP), Z23, Z3; \
	VMULPS  (seg+64)(SP), Z23, Z4; \
	VMULPS  (seg+128)(SP), Z23, Z5; \
	VMULPS  MW(SP), Z18, Z11; \
	VMOVUPS (d+0)(SP), Z0; \
	VADDPS  Z3, Z0, Z0; \
	VMOVUPS (d+64)(SP), Z1; \
	VADDPS  Z4, Z1, Z1; \
	VMOVUPS (d+128)(SP), Z2; \
	VADDPS  Z5, Z2, Z2; \
	VMULPS  Z3, Z11, Z12; \
	VMULPS  Z4, Z12, Z12; \
	VMULPS  Z5, Z12, Z12; \
	VMULPS  Z22, Z12, Z12; \
	JROWS(Z3, Z1, Z2, km, Z6, Z7, Z8, Z9); \
	JROWS(Z4, Z2, Z0, km, Z24, Z25, Z26, Z27); \
	PAIRS(Z6, Z24, c+0); \
	PAIRS(Z7, Z25, c+128); \
	PAIRS(Z8, Z26, c+256); \
	PAIRS(Z9, Z27, c+384); \
	JROWS(Z5, Z0, Z1, km, Z6, Z7, Z8, Z9); \
	VMOVUPS Z6, (c+512)(SP); \
	VMOVUPS Z7, (c+576)(SP); \
	VMOVUPS Z8, (c+640)(SP); \
	VMOVUPS Z9, (c+704)(SP)

// CELLS stores 6·v for the voxels at frame offset v to the frame at c.
#define CELLS(v, c) \
	VMOVDQU32 v(SP), Z0; \
	VPSLLD    $1, Z0, Z1; \
	VPSLLD    $2, Z0, Z0; \
	VPADDD    Z1, Z0, Z0; \
	VMOVDQU32 Z0, c(SP)

// FINAL selects one axis's final offset: d2 + rem2 after two faces, d2
// after one, d1 after none.
#define FINAL(off) \
	VMOVUPS (MD2+off)(SP), Z0; \
	VADDPS  (MREM2+off)(SP), Z0, Z1; \
	VMOVAPS Z1, K6, Z0; \
	VMOVUPS (MD1+off)(SP), Z2; \
	VMOVAPS Z0, K5, Z2; \
	VMOVUPS Z2, (MFD+off)(SP)

// ADDCELL adds the terms at frame offset c of the lane whose slot is
// R9 into its cell, ac + 8·DX, the cell first: JX and JY as one YMM,
// then JZ.
#define ADDCELL(c) \
	VMOVUPS 0(SI)(DX*8), Y0; \
	VADDPS  c(SP)(R9*2), Y0, Y0; \
	VMOVUPS Y0, 0(SI)(DX*8); \
	VMOVUPS 32(SI)(DX*8), X1; \
	VADDPS  (c+512)(SP)(R9*1), X1, X1; \
	VMOVUPS X1, 32(SI)(DX*8)

// func moveBatch16AVX512(blk []particle.Block, mv []particle.Mover, faces []uint8, ac []accum.Cell, con *moveConsts, tally *moveTally) int
TEXT ·moveBatch16AVX512(SB), 0, $4672-120
	MOVQ  blk_base+0(FP), DI
	MOVQ  blk_len+8(FP), R13
	MOVQ  mv_base+24(FP), SI
	MOVQ  mv_len+32(FP), CX
	MOVQ  faces_base+48(FP), BX
	MOVQ  faces_len+56(FP), R11
	TESTQ R13, R13
	JEQ   none
	TESTQ CX, CX
	JEQ   none
	TESTQ R11, R11
	JEQ   none
	// The batch is mv's top n = min(len, 16) movers.
	MOVL    $16, R8
	MOVQ    CX, R9
	CMPQ    CX, R8
	CMOVQGT R8, CX
	MOVQ    CX, MN(SP)
	SUBQ    CX, R9
	SHLQ    $4, R9
	ADDQ    R9, SI
	MOVQ    R9, R10

	// The next batch's particle offsets, when there are sixteen movers
	// below this batch; their prefetches go out behind this batch's
	// gathers.
	CMPQ         R10, $256
	JLT          gather
	VMOVDQU32    idxword<>(SB), Z0
	KXNORW       K1, K1, K1
	VPGATHERDD   -256(SI)(Z0*4), K1, Z1
	OFFSETS(Z1, Z1)
	VMOVDQU32    Z1, MPF(SP)

gather:

	// ---- Gather the lanes. The records are four vector loads, word w
	// of the 4n live ones under K1-K4, transposed and put back in lane
	// order; lanes past n read zeros.
	MOVQ      CX, R8
	SHLQ      $2, CX
	NEGQ      CX
	ADDQ      $64, CX
	MOVQ      $-1, AX
	SHRQ      CX, AX
	MOVQ      R8, CX
	KMOVW     AX, K1
	SHRQ      $16, AX
	KMOVW     AX, K2
	SHRQ      $16, AX
	KMOVW     AX, K3
	SHRQ      $16, AX
	KMOVW     AX, K4
	VMOVUPS.Z 0(SI), K1, Z0
	VMOVUPS.Z 64(SI), K2, Z1
	VMOVUPS.Z 128(SI), K3, Z2
	VMOVUPS.Z 192(SI), K4, Z3
	TRANSPOSE4(Z0, Z1, Z2, Z3, Z4, Z5)
	VMOVDQU32 unperm<>(SB), Z4
	VPERMPS   Z0, Z4, Z0
	VPERMPS   Z1, Z4, Z1
	VPERMPS   Z2, Z4, Z2
	VPERMD    Z3, Z4, Z3
	VMOVUPS   Z0, (MDD+0)(SP)
	VMOVUPS   Z1, (MDD+64)(SP)
	VMOVUPS   Z2, (MDD+128)(SP)

	// A lane below n whose index is below min(8·len(blk), 2^28), which
	// keeps its word offset an int32, is gathered (K2); every other lane
	// below n is slow (K7). Lane l's particle is at word idx + 56·(idx/8)
	// of blk (Z16).
	SHLQ         $3, R13
	MOVL         $(1<<28), AX
	CMPQ         R13, AX
	CMOVQGT      AX, R13
	VPBROADCASTD R13, Z4
	MOVL         $1, AX
	SHLL         CX, AX
	DECL         AX
	KMOVW        AX, K1
	VPCMPUD      $1, Z4, Z3, K1, K2
	KANDNW       K1, K2, K7
	OFFSETS(Z3, Z16)
	KMOVW        K2, K1
	VPXORD       Z0, Z0, Z0
	VGATHERDPS   0(DI)(Z16*4), K1, Z0
	KMOVW        K2, K1
	VPXORD       Z1, Z1, Z1
	VGATHERDPS   32(DI)(Z16*4), K1, Z1
	KMOVW        K2, K1
	VPXORD       Z2, Z2, Z2
	VGATHERDPS   64(DI)(Z16*4), K1, Z2
	KMOVW        K2, K1
	VPXORD       Z3, Z3, Z3
	VPGATHERDD   96(DI)(Z16*4), K1, Z3
	KMOVW        K2, K1
	VPXORD       Z4, Z4, Z4
	VGATHERDPS   224(DI)(Z16*4), K1, Z4
	VMOVUPS      Z0, (MD+0)(SP)
	VMOVUPS      Z1, (MD+64)(SP)
	VMOVUPS      Z2, (MD+128)(SP)
	VMOVDQU32    Z3, MVOX(SP)
	VMOVUPS      Z4, MW(SP)

	// The start voxels' face bytes (Z17).
	SUBQ         $3, R11
	XORL         AX, AX
	CMPQ         R11, AX
	CMOVQLT      AX, R11
	MOVL         $0x7fffffff, AX
	CMPQ         R11, AX
	CMOVQGT      AX, R11
	VPBROADCASTD R11, Z15
	FACES(Z3, K2, Z17)

	// The next batch's prefetches.
	CMPQ R10, $256
	JLT  consts
	PREFETCH(0)
	PREFETCH(1)
	PREFETCH(2)
	PREFETCH(3)
	PREFETCH(4)
	PREFETCH(5)
	PREFETCH(6)
	PREFETCH(7)
	PREFETCH(8)
	PREFETCH(9)
	PREFETCH(10)
	PREFETCH(11)
	PREFETCH(12)
	PREFETCH(13)
	PREFETCH(14)
	PREFETCH(15)

consts:
	// ---- Constants.
	MOVQ         con+96(FP), R8
	VPXORD       Z31, Z31, Z31
	VBROADCASTSS one<>(SB), Z30
	VBROADCASTSS negone<>(SB), Z29
	VBROADCASTSS two<>(SB), Z28
	VPBROADCASTD ints<>+0(SB), Z27
	VPBROADCASTD ints<>+4(SB), Z26
	VPBROADCASTD ints<>+8(SB), Z25
	VPBROADCASTD ints<>+12(SB), Z24
	VBROADCASTSS half<>(SB), Z23
	VBROADCASTSS third<>(SB), Z22
	VMOVDQU32    40(R8), Y21
	VMOVDQU32    8(R8), Y20
	VPBROADCASTD 4(R8), Z19
	VBROADCASTSS 0(R8), Z18

	// ---- The first face, segment 1, and the voxel after the face.
	VMOVAPS   Z30, Z13
	VPXORD    Z12, Z12, Z12
	VMOVDQA32 Z24, Z11
	FIRSTFACE(MDD, MD, 0, Z31)
	FIRSTFACE(MDD, MD, 64, Z26)
	FIRSTFACE(MDD, MD, 128, Z25)
	VCMPPS    $0x11, Z30, Z13, K5 // s < 1

	VSUBPS Z12, Z31, Z12
	SPLIT(MDD, MD, MSEG, MD1, MREM, 0, Z31)
	SPLIT(MDD, MD, MSEG, MD1, MREM, 64, Z27)
	SPLIT(MDD, MD, MSEG, MD1, MREM, 128, Z26)

	VMOVDQU32 MVOX(SP), Z1
	CROSS(Z17, Z1)
	VMOVDQU32 Z1, MV1(SP)
	VMOVDQU32 Z1, MV2(SP)

	// ---- The second face and segment 2.
	VMOVAPS   Z30, Z13
	VPXORD    Z12, Z12, Z12
	VMOVDQA32 Z24, Z11
	FIRSTFACE(MREM, MD1, 0, Z31)
	FIRSTFACE(MREM, MD1, 64, Z26)
	FIRSTFACE(MREM, MD1, 128, Z25)
	VCMPPS    $0x11, Z30, Z13, K5, K6
	KMOVW     K6, AX

	VSUBPS Z12, Z31, Z12
	SPLIT(MREM, MD1, MSEG2, MD2, MREM2, 0, Z31)
	SPLIT(MREM, MD1, MSEG2, MD2, MREM2, 64, Z27)
	SPLIT(MREM, MD1, MSEG2, MD2, MREM2, 128, Z26)

	// ---- Only when a lane crosses a second face: the voxel after it,
	// whether a third face follows, and segment 3's terms.
	TESTL AX, AX
	JEQ   planned
	VMOVDQU32 MV1(SP), Z1
	KXNORW    K2, K2, K2
	FACES(Z1, K2, Z17)
	CROSS(Z17, Z1)
	VMOVDQU32 Z1, MV2(SP)
	REACH(MREM2, MD2, 0)
	REACH(MREM2, MD2, 64)
	REACH(MREM2, MD2, 128)
	TERMS(MD2, MREM2, MC3, K6)

planned:
	// ---- Every voxel inside min(len(faces), len(ac), 2^29) — unsigned,
	// so a negative one is outside too, and 6·voxel is a uint32; final
	// offsets and cells.
	MOVQ         faces_len+56(FP), AX
	MOVQ         ac_len+80(FP), DX
	CMPQ         DX, AX
	CMOVQLT      DX, AX
	MOVL         $(1<<29), DX
	CMPQ         AX, DX
	CMOVQGT      DX, AX
	VPBROADCASTD AX, Z7
	VPCMPUD      $2, MVOX(SP), Z7, K1
	KORW         K1, K7, K7
	VPCMPUD      $2, MV1(SP), Z7, K1
	KORW         K1, K7, K7
	VPCMPUD      $2, MV2(SP), Z7, K1
	KORW         K1, K7, K7

	FINAL(0)
	FINAL(64)
	FINAL(128)

	CELLS(MVOX, MCELL)
	CELLS(MV1, MCELL+64)
	CELLS(MV2, MCELL+128)

	// ---- Segments 1 and 2's terms (segment 2's zero in a lane that
	// reaches no face); a NaN term makes the lane slow.
	KXNORW K4, K4, K4
	TERMS(MD, MSEG, MC1, K4)
	TERMS(MD1, MSEG2, MC2, K5)

	// ---- The lanes to finish: n−1 down to the first slow lane, BX
	// (−1: none); AX their mask.
	MOVQ    MN(SP), CX
	MOVL    $1, AX
	SHLL    CX, AX
	DECL    AX
	KMOVW   K7, R9
	ANDL    AX, R9
	MOVQ    $-1, BX
	BSRL    R9, R9
	CMOVQNE R9, BX
	MOVQ    CX, R9
	SUBQ    BX, R9
	DECQ    R9
	MOVQ    R9, ret+112(FP)
	JEQ     done
	LEAQ    1(BX), CX
	MOVL    $1, R9
	SHLL    CX, R9
	DECL    R9
	NOTL    R9
	ANDL    R9, AX
	KMOVW   AX, K1

	// Their segments and voxel window into the tally.
	MOVQ     tally+104(FP), R8
	POPCNTL  AX, R9
	KMOVW    K5, DX
	ANDL     AX, DX
	POPCNTL  DX, DX
	ADDL     DX, R9
	KMOVW    K6, DX
	ANDL     AX, DX
	POPCNTL  DX, DX
	ADDL     DX, R9
	ADDQ     R9, 0(R8)
	VMOVDQU32 MVOX(SP), Z0
	VPMINSD   MV1(SP), Z0, Z1
	VPMINSD   MV2(SP), Z1, Z1
	VPMAXSD   MV1(SP), Z0, Z2
	VPMAXSD   MV2(SP), Z2, Z2
	VPBROADCASTD maxint<>(SB), Z3
	VMOVDQA32 Z1, K1, Z3
	VPTERNLOGD $0xff, Z4, Z4, Z4 // −1, below every voxel in ac
	VMOVDQA32 Z2, K1, Z4
	VPBROADCASTD 8(R8), Z5
	VPMINSD   Z5, Z3, Z3
	VPBROADCASTD 12(R8), Z5
	VPMAXSD   Z5, Z4, Z4
	VEXTRACTI64X4 $1, Z3, Y5
	VPMINSD   Y5, Y3, Y3
	VEXTRACTI64X4 $1, Z4, Y5
	VPMAXSD   Y5, Y4, Y4
	VEXTRACTI128 $1, Y3, X5
	VPMINSD   X5, X3, X3
	VEXTRACTI128 $1, Y4, X5
	VPMAXSD   X5, X4, X4
	VPSHUFD   $0x4E, X3, X5
	VPMINSD   X5, X3, X3
	VPSHUFD   $0x4E, X4, X5
	VPMAXSD   X5, X4, X4
	VPSHUFD   $0xB1, X3, X5
	VPMINSD   X5, X3, X3
	VPSHUFD   $0xB1, X4, X5
	VPMAXSD   X5, X4, X4
	VMOVD     X3, 8(R8)
	VMOVD     X4, 12(R8)

	// Their final offsets and voxels.
	KMOVW        AX, K2
	VMOVUPS      (MFD+0)(SP), Z0
	VSCATTERDPS  Z0, K2, 0(DI)(Z16*4)
	KMOVW        AX, K2
	VMOVUPS      (MFD+64)(SP), Z0
	VSCATTERDPS  Z0, K2, 32(DI)(Z16*4)
	KMOVW        AX, K2
	VMOVUPS      (MFD+128)(SP), Z0
	VSCATTERDPS  Z0, K2, 64(DI)(Z16*4)
	KMOVW        AX, K2
	VMOVDQU32    MV2(SP), Z0
	VPSCATTERDD  Z0, K2, 96(DI)(Z16*4)

	// Each lane adds its segments' cells in order, top lane first: two
	// or, when some lane crosses a second face, three. An unused
	// segment's terms are +0, and its cell the lane's last: adding +0
	// changes no accumulator value (none is −0; see the accum package),
	// so the adds take no branch on a lane's segment count.
	MOVQ  MN(SP), CX
	MOVQ  ac_base+72(FP), SI
	LEAQ  slot<>(SB), R12
	KMOVW K6, AX
	TESTL AX, AX
	JNE   apply3

apply2:
	DECQ CX
	CMPQ CX, BX
	JLE  done
	MOVL (R12)(CX*4), R9
	MOVL MCELL(SP)(CX*4), DX
	ADDCELL(MC1)
	MOVL (MCELL+64)(SP)(CX*4), DX
	ADDCELL(MC2)
	JMP  apply2

apply3:
	DECQ CX
	CMPQ CX, BX
	JLE  done
	MOVL (R12)(CX*4), R9
	MOVL MCELL(SP)(CX*4), DX
	ADDCELL(MC1)
	MOVL (MCELL+64)(SP)(CX*4), DX
	ADDCELL(MC2)
	MOVL (MCELL+128)(SP)(CX*4), DX
	ADDCELL(MC3)
	JMP  apply3

done:
	VZEROUPPER
	RET

none:
	MOVQ $0, ret+112(FP)
	VZEROUPPER
	RET
