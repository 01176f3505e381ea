//go:build !purego

// AVX2 block routine for the AoSoA particle push: advanceBlockGo's
// staged lane loops and its ordered run accumulation as one vector
// routine over the lanes [l0, l1) of a single 256-byte particle.Block.
// The 8 lanes of the block are the 8 float32 lanes of a YMM register, so
// each "lane loop" of the Go routine collapses into a handful of vector
// instructions. Each lane's own 72-byte interpolator is loaded straight
// from ip[b.Voxel[l]] and transposed in registers — four 16-byte groups
// per lane pair (l, l+4) and an in-lane 4×4 transpose, VPIC's
// load_4x4_tr — so whichever voxels the lanes sit in every coefficient
// row costs one shuffle network, not a gather. The in-cell current goes
// out the same way in reverse: stage D's twelve rows are transposed to
// per-lane 48-byte cells and added into the run's cell lane by lane.
//
// Bit-exactness contract (see DESIGN §8.2 and the parity tests): every
// lane is arithmetically independent, every instruction used is IEEE
// correctly rounded per lane (VADDPS/VSUBPS/VMULPS/VDIVPS/VSQRTPS),
// FMA is deliberately not used (gc emits no FMA contraction for the Go
// kernel on amd64, so fusing here would change roundings), and the
// association and operand order of every expression mirror the Go
// source exactly. Go's rsqrt — float32 SQRTSS then DIVSS — becomes
// VSQRTPS + VDIVPS, the same two correctly-rounded operations
// lane-wise. The run adds each lane's cell with the lane's contribution
// as the first source operand and the run sum as the second — gc's
// order for `c.JX[0] += e` (ADDSS cell, Xe) in advanceBlockGo and the
// oracle — so even NaN payloads match (two NaNs yield the first);
// lanes are added in ascending order, so every accumulator slot's chain
// is the per-particle oracle's. A crosser's cell is +0.0, and adding
// +0.0 leaves every accumulator value bitwise unchanged: cells start at
// +0.0 and a round-to-nearest sum is −0.0 only when both addends are,
// so no cell ever holds −0.0 (the accum package's invariant).
//
// Bounds contract: lanes outside [l0, l1) take lane l0's voxel before
// any table load, and all eight voxels must lie in [0, n), n =
// min(len(ip), len(ac)); otherwise the routine returns badVoxel having
// written nothing. Stores to the block are masked, so lanes outside the
// range, and the pre-step offsets of crossing lanes, are never written.
// The routine has a frame (below) and is therefore not NOSPLIT; every
// instruction is VEX-encoded (a legacy-SSE one while the upper YMM
// state is dirty costs a state transition per call).
//
// Register plan (stages; Y12 = broadcast qdt2mc through stage B):
//   prologue:  Y15 lane mask, Y0 voxels -> bounds check;
//              AX BX CX DX R10-R13 = 9·voxel of lanes 0-7 (ip row scale 8)
//   A gather:  Y0-2 dx,dy,dz; per group Y13-15,Y9 rows, Y10-11 temps
//              -> Y3-5 hax,hay,haz  Y6-8 cbx,cby,cbz
//   B boris:   Y9-11 ux,uy,uz updated, masked-stored to Ux,Uy,Uz
//   C move:    Y3-5 ddx,ddy,ddz  Y0-2 dx,dy,dz  Y6-8 nx,ny,nz
//              AX crosser bits, Y10 deposit mask (in range, in cell)
//   D scatter: Y0-2 mx,my,mz  Y3-5 hx,hy,hz  Y11 qw  Y12 v5
//              Y13 1.0  Y14 qh  Y9/Y15 temps -> 12 rows in the frame
//   E run:     Y0-5 rows -> per-lane cells in the frame; X0-2 the run's
//              JX,JY,JZ; DX run voxel, R10 &ac[voxel], BX runs, R12/R13
//              window lo/hi, CX lane, R9 48·lane

#include "textflag.h"

#include "push_amd64.h"

// Frame layout:
#define FMASK 0    // lane range mask [l0, l1), 32 B
#define FVOX 32    // the checked lane voxels, 32 B
#define FROWS 64   // stage D's 12 current rows (JX0..3, JY0..3, JZ0..3), 384 B
#define FCELLS 448 // the rows as 8 per-lane accum.Cells, 384 B

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

// QUAD loads the 16 bytes at byte offset off of the eight lanes'
// interpolators (SI + 8·R for the lane's scaled voxel R) as four lane-pair
// rows: r0 = lanes 0|4 (low|high 128-bit half), r1 = 1|5, r2 = 2|6,
// r3 = 3|7.
#define QUAD(off, r0, r1, r2, r3) \
	VBROADCASTF128 off(SI)(AX*8), r0; \
	VINSERTF128    $1, off(SI)(R10*8), r0, r0; \
	VBROADCASTF128 off(SI)(BX*8), r1; \
	VINSERTF128    $1, off(SI)(R11*8), r1, r1; \
	VBROADCASTF128 off(SI)(CX*8), r2; \
	VINSERTF128    $1, off(SI)(R12*8), r2, r2; \
	VBROADCASTF128 off(SI)(DX*8), r3; \
	VINSERTF128    $1, off(SI)(R13*8), r3, r3

// CELLS stores TRANSPOSE4's Y0-Y3 (lane k | lane k+4 slots) to the
// per-lane cells at slot-group offset off (0 JX, 16 JY, 32 JZ).
#define CELLS(off) \
	VMOVUPS      X0, (FCELLS+0*48+off)(SP); \
	VEXTRACTF128 $1, Y0, (FCELLS+4*48+off)(SP); \
	VMOVUPS      X1, (FCELLS+1*48+off)(SP); \
	VEXTRACTF128 $1, Y1, (FCELLS+5*48+off)(SP); \
	VMOVUPS      X2, (FCELLS+2*48+off)(SP); \
	VEXTRACTF128 $1, Y2, (FCELLS+6*48+off)(SP); \
	VMOVUPS      X3, (FCELLS+3*48+off)(SP); \
	VEXTRACTF128 $1, Y3, (FCELLS+7*48+off)(SP)

// func advanceBlockAVX2(b *particle.Block, ip []interp.Coeffs, ac []accum.Cell, run *laneRun, con *laneConsts, out *laneVecs, l0, l1 int) uint64
TEXT ·advanceBlockAVX2(SB), 0, $832-104
	MOVQ b+0(FP), DI

	// ---- Prologue: lane mask, voxel check, per-lane interpolator rows.
	MOVQ    $lanemask<>(SB), R10
	MOVQ    l0+80(FP), R11
	MOVQ    R11, AX
	SHLQ    $5, AX
	VMOVDQU (R10)(AX*1), Y14
	MOVQ    l1+88(FP), CX
	SHLQ    $5, CX
	VMOVDQU (R10)(CX*1), Y15
	VPANDN  Y15, Y14, Y15    // lane mask = row[l1] &^ row[l0]
	VMOVDQU Y15, FMASK(SP)

	// Lanes outside [l0, l1) take lane l0's voxel, so no table load can
	// leave the tables on their account; then every lane must satisfy
	// 0 <= v < n, n = min(len(ip), len(ac), MaxInt32).
	VMOVDQU      BVOX(DI), Y0
	VPBROADCASTD BVOX(DI)(R11*4), Y1
	VBLENDVPS    Y15, Y0, Y1, Y0
	MOVQ         ip_len+16(FP), AX
	MOVQ         ac_len+40(FP), DX
	CMPQ         DX, AX
	CMOVQLT      DX, AX
	MOVL         $0x7fffffff, DX
	CMPQ         AX, DX
	CMOVQGT      DX, AX
	VMOVD        AX, X1
	VPBROADCASTD X1, Y1
	VPCMPGTD     Y0, Y1, Y1  // n > v
	VPANDN       Y1, Y0, Y1  // and v >= 0 (sign clear)
	VMOVMSKPS    Y1, AX
	CMPL         AX, $0xff
	JNE          badvoxel
	VMOVDQU      Y0, FVOX(SP)

	// Lane l's interpolator is ip + 72·v = SI + 8·(9·v).
	MOVQ ip_base+8(FP), SI
	MOVL FVOX+0(SP), AX
	LEAQ (AX)(AX*8), AX
	MOVL FVOX+4(SP), BX
	LEAQ (BX)(BX*8), BX
	MOVL FVOX+8(SP), CX
	LEAQ (CX)(CX*8), CX
	MOVL FVOX+12(SP), DX
	LEAQ (DX)(DX*8), DX
	MOVL FVOX+16(SP), R10
	LEAQ (R10)(R10*8), R10
	MOVL FVOX+20(SP), R11
	LEAQ (R11)(R11*8), R11
	MOVL FVOX+24(SP), R12
	LEAQ (R12)(R12*8), R12
	MOVL FVOX+28(SP), R13
	LEAQ (R13)(R13*8), R13

	MOVQ         con+64(FP), R8
	MOVQ         out+72(FP), R9
	VBROADCASTSS 0(R8), Y12 // qdt2mc

	// ---- Stage A: gather. dx,dy,dz -> hax,hay,haz (Y3-5), cb (Y6-8).
	VMOVUPS BDX(DI), Y0
	VMOVUPS BDY(DI), Y1
	VMOVUPS BDZ(DI), Y2

	// hax = qdt2mc * ((Ex0 + dy*DExDy) + dz*(DExDz + dy*D2ExDyDz))
	QUAD(0, Y13, Y14, Y15, Y9)
	TRANSPOSE4(Y13, Y14, Y15, Y9, Y10, Y11) // Ex0 DExDy DExDz D2ExDyDz
	VMULPS Y1, Y14, Y14
	VADDPS Y14, Y13, Y13
	VMULPS Y1, Y9, Y9
	VADDPS Y9, Y15, Y9
	VMULPS Y2, Y9, Y9
	VADDPS Y9, Y13, Y13
	VMULPS Y13, Y12, Y3

	// hay = qdt2mc * ((Ey0 + dz*DEyDz) + dx*(DEyDx + dz*D2EyDzDx))
	QUAD(16, Y13, Y14, Y15, Y9)
	TRANSPOSE4(Y13, Y14, Y15, Y9, Y10, Y11) // Ey0 DEyDz DEyDx D2EyDzDx
	VMULPS Y2, Y14, Y14
	VADDPS Y14, Y13, Y13
	VMULPS Y2, Y9, Y9
	VADDPS Y9, Y15, Y9
	VMULPS Y0, Y9, Y9
	VADDPS Y9, Y13, Y13
	VMULPS Y13, Y12, Y4

	// haz = qdt2mc * ((Ez0 + dx*DEzDx) + dy*(DEzDy + dx*D2EzDxDy))
	QUAD(32, Y13, Y14, Y15, Y9)
	TRANSPOSE4(Y13, Y14, Y15, Y9, Y10, Y11) // Ez0 DEzDx DEzDy D2EzDxDy
	VMULPS Y0, Y14, Y14
	VADDPS Y14, Y13, Y13
	VMULPS Y0, Y9, Y9
	VADDPS Y9, Y15, Y9
	VMULPS Y1, Y9, Y9
	VADDPS Y9, Y13, Y13
	VMULPS Y13, Y12, Y5

	// cb = CB0 + d*DCBdD
	QUAD(48, Y13, Y14, Y15, Y9)
	TRANSPOSE4(Y13, Y14, Y15, Y9, Y10, Y11) // CBx0 DCBxDx CBy0 DCByDy
	VMULPS Y0, Y14, Y14
	VADDPS Y14, Y13, Y6
	VMULPS Y1, Y9, Y9
	VADDPS Y9, Y15, Y7

	// CBz0, DCBzDz: one 8-byte pair per lane, lanes 0 1 | 4 5 and 2 3 | 6 7
	// packed side by side, then split into even and odd elements.
	VMOVSD      64(SI)(AX*8), X13
	VMOVHPS     64(SI)(BX*8), X13, X13
	VMOVSD      64(SI)(R10*8), X14
	VMOVHPS     64(SI)(R11*8), X14, X14
	VINSERTF128 $1, X14, Y13, Y13
	VMOVSD      64(SI)(CX*8), X14
	VMOVHPS     64(SI)(DX*8), X14, X14
	VMOVSD      64(SI)(R12*8), X15
	VMOVHPS     64(SI)(R13*8), X15, X15
	VINSERTF128 $1, X15, Y14, Y14
	VSHUFPS     $0xDD, Y14, Y13, Y15 // DCBzDz
	VSHUFPS     $0x88, Y14, Y13, Y13 // CBz0
	VMULPS      Y2, Y15, Y15
	VADDPS      Y15, Y13, Y8

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
	VADDPS     Y3, Y9, Y9
	VADDPS     Y4, Y10, Y10
	VADDPS     Y5, Y11, Y11
	VMOVDQU    FMASK(SP), Y14
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

	// Crosser bits of [l0, l1); deposit mask Y10: in range, not crossing
	// (all 32 bits of a lane, so it also zeroes rows).
	VPSRAD    $31, Y9, Y9
	VMOVDQU   FMASK(SP), Y14
	VPAND     Y14, Y9, Y15
	VMOVMSKPS Y15, AX
	VPANDN    Y14, Y9, Y10

	// ---- Stage D: in-cell current rows, full width, to the frame, zero
	// in the lanes that do not deposit. mx,my,mz overwrite dx,dy,dz;
	// hx,hy,hz overwrite dd.
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
	VANDPS  Y10, Y9, Y9
	VMOVUPS Y9, (FROWS+0)(SP)
	VADDPS  Y1, Y13, Y9 // 1+my
	VMULPS  Y9, Y14, Y9
	VMULPS  Y15, Y9, Y9
	VSUBPS  Y12, Y9, Y9
	VANDPS  Y10, Y9, Y9
	VMOVUPS Y9, (FROWS+32)(SP)
	VADDPS  Y2, Y13, Y15 // 1+mz
	VSUBPS  Y1, Y13, Y9
	VMULPS  Y9, Y14, Y9
	VMULPS  Y15, Y9, Y9
	VSUBPS  Y12, Y9, Y9
	VANDPS  Y10, Y9, Y9
	VMOVUPS Y9, (FROWS+64)(SP)
	VADDPS  Y1, Y13, Y9
	VMULPS  Y9, Y14, Y9
	VMULPS  Y15, Y9, Y9
	VADDPS  Y12, Y9, Y9
	VANDPS  Y10, Y9, Y9
	VMOVUPS Y9, (FROWS+96)(SP)

	// JY slots: qh = qw*hy; pair (mz, mx).
	VMULPS  Y4, Y11, Y14
	VSUBPS  Y2, Y13, Y9  // 1-mz
	VMULPS  Y9, Y14, Y9
	VSUBPS  Y0, Y13, Y15 // 1-mx
	VMULPS  Y15, Y9, Y9
	VADDPS  Y12, Y9, Y9
	VANDPS  Y10, Y9, Y9
	VMOVUPS Y9, (FROWS+128)(SP)
	VADDPS  Y2, Y13, Y9 // 1+mz
	VMULPS  Y9, Y14, Y9
	VMULPS  Y15, Y9, Y9
	VSUBPS  Y12, Y9, Y9
	VANDPS  Y10, Y9, Y9
	VMOVUPS Y9, (FROWS+160)(SP)
	VADDPS  Y0, Y13, Y15 // 1+mx
	VSUBPS  Y2, Y13, Y9
	VMULPS  Y9, Y14, Y9
	VMULPS  Y15, Y9, Y9
	VSUBPS  Y12, Y9, Y9
	VANDPS  Y10, Y9, Y9
	VMOVUPS Y9, (FROWS+192)(SP)
	VADDPS  Y2, Y13, Y9
	VMULPS  Y9, Y14, Y9
	VMULPS  Y15, Y9, Y9
	VADDPS  Y12, Y9, Y9
	VANDPS  Y10, Y9, Y9
	VMOVUPS Y9, (FROWS+224)(SP)

	// JZ slots: qh = qw*hz; pair (mx, my).
	VMULPS  Y5, Y11, Y14
	VSUBPS  Y0, Y13, Y9  // 1-mx
	VMULPS  Y9, Y14, Y9
	VSUBPS  Y1, Y13, Y15 // 1-my
	VMULPS  Y15, Y9, Y9
	VADDPS  Y12, Y9, Y9
	VANDPS  Y10, Y9, Y9
	VMOVUPS Y9, (FROWS+256)(SP)
	VADDPS  Y0, Y13, Y9 // 1+mx
	VMULPS  Y9, Y14, Y9
	VMULPS  Y15, Y9, Y9
	VSUBPS  Y12, Y9, Y9
	VANDPS  Y10, Y9, Y9
	VMOVUPS Y9, (FROWS+288)(SP)
	VADDPS  Y1, Y13, Y15 // 1+my
	VSUBPS  Y0, Y13, Y9
	VMULPS  Y9, Y14, Y9
	VMULPS  Y15, Y9, Y9
	VSUBPS  Y12, Y9, Y9
	VANDPS  Y10, Y9, Y9
	VMOVUPS Y9, (FROWS+320)(SP)
	VADDPS  Y0, Y13, Y9
	VMULPS  Y9, Y14, Y9
	VMULPS  Y15, Y9, Y9
	VADDPS  Y12, Y9, Y9
	VANDPS  Y10, Y9, Y9
	VMOVUPS Y9, (FROWS+352)(SP)

	// Commit the new offsets of the in-range, non-crossing lanes.
	VMASKMOVPS Y6, Y10, BDX(DI)
	VMASKMOVPS Y7, Y10, BDY(DI)
	VMASKMOVPS Y8, Y10, BDZ(DI)

	// ---- Stage E: the rows as per-lane cells, then the run.
	VMOVUPS (FROWS+0)(SP), Y0
	VMOVUPS (FROWS+32)(SP), Y1
	VMOVUPS (FROWS+64)(SP), Y2
	VMOVUPS (FROWS+96)(SP), Y3
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y4, Y5)
	CELLS(0)
	VMOVUPS (FROWS+128)(SP), Y0
	VMOVUPS (FROWS+160)(SP), Y1
	VMOVUPS (FROWS+192)(SP), Y2
	VMOVUPS (FROWS+224)(SP), Y3
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y4, Y5)
	CELLS(16)
	VMOVUPS (FROWS+256)(SP), Y0
	VMOVUPS (FROWS+288)(SP), Y1
	VMOVUPS (FROWS+320)(SP), Y2
	VMOVUPS (FROWS+352)(SP), Y3
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y4, Y5)
	CELLS(32)

	// The run continues from the previous block: reload its cell. With
	// no run yet, the first lane's store of the "finished" run lands in
	// the dead rows.
	MOVQ    AX, ret+96(FP)
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
	LEAQ    FROWS(SP), R10
	TESTQ   DX, DX
	JS      lane
	LEAQ    (DX)(DX*2), R10
	SHLQ    $4, R10
	ADDQ    SI, R10          // R10 = &ac[run voxel]
	VMOVUPS 0(R10), X0
	VMOVUPS 16(R10), X1
	VMOVUPS 32(R10), X2

	// Lanes [l0, l1) in ascending order, without a branch: every lane
	// stores the run's cell and loads its own voxel's — a round trip
	// through store forwarding while the voxel is unchanged, the
	// finished run's store and the new run's load when it changes — and
	// adds its cell (zero for a crosser).
lane:
	MOVLQSX BVOX(DI)(CX*4), R8
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

	// Store the run's cell back; the next block reloads it.
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
	MOVQ $-1, ret+96(FP) // badVoxel
	VZEROUPPER
	RET

// ---- moveBatchAVX2: moveP's fast movers as one vector routine over the
// top batch of up to eight movers (see its declaration for the
// contract), plus prefetches of the next batch's particles. The routine
// plans all lanes at once — up to two faces, segments 1 and 2 always,
// segment 3 only when some lane crosses a second face — and then
// finishes the fast lanes one by one from the top lane down, stopping at
// the first slow one.
//
// Bit-exactness: the lanes are independent and every float operation is
// moveP's and scatterCell's in the same association — s·r, d + seg,
// r − seg, the face fraction (sgn − d)/r with VMAXPS(f, 0) = max32(f, 0)
// (−0 → +0 included), and stage D's twelve rows. A NaN input gives a
// NaN term and a slow lane, so every NaN a fast lane can meet is the
// default NaN and operand order cannot pick a payload; the adds take the
// cell first, as scatterCell's do.
// The face is selected in x, y, z order with a strict f < s, so ties
// keep the earlier axis. Every lane runs the second face search: with
// no face behind it the remainder is 0, so no face is found, the step's
// fraction is 1 and its voxel delta 0. A segment the lane does not use
// is masked out of the NaN test and never added, and the final offsets
// are selected by the face count (d + 0 would turn a −0 offset into
// +0).
//
// Gather: each lane's record (a lane past the batch rereads its first
// record) and particle are read with scalar VMOVSS/VINSERTPS — no
// VGATHERDPS. An index outside blk reads badblk<>, whose voxel −1 is
// outside faces; a voxel outside faces reads faces[0] and records face
// byte 0x40, which makes the lane slow, and so does the second face's
// voxel. Every voxel a lane deposits into is checked against
// min(len(faces), len(ac)) before the apply.
//
// Register plan:
//   gather: AX badblk, BX faces, CX lanes, DX 0, SI batch, DI blk,
//           R8 record, R9 scratch, R10 particle, R11 len(faces),
//           R12 0x40, R13 8·len(blk); X0-7 lanes 0-3, X8-15 lanes 4-7
//   faces:  Y15 0, Y14 1, Y13 s, Y12 dir, Y11 face code (6: none),
//           Y10 −1, Y9 2; Y0-8 temps; R8 con
//   fate:   Y6 slow, Y7 n − 1, then the segment's row mask
//   terms:  stage D's plan, Y10 a NaN row, Y8 temp
//   apply:  CX lane, BX the stop lane, SI ac, DX voxel, R9 48·lane,
//           R10 cell or particle, R11 segments, R12/R13 window lo/hi

// Frame layout:
#define MFACE 0      // the lanes' face bytes at the start voxel, 8 B
#define MFACE2 8     // ... at the voxel after the first face, 8 B
#define MPTR 16      // the lanes' particle addresses, 64 B
#define MN 80        // the lane count
#define MD 96        // dx, dy, dz
#define MVOX 192     // start voxel
#define MW 224
#define MDD 256      // ddx, ddy, ddz
#define MSEG 352     // segment 1 = s·dd
#define MD1 448      // d + seg, the face axis at −dir
#define MREM 544     // dd − seg
#define MSEG2 640    // segment 2, offsets and remainder after it
#define MD2 736
#define MREM2 832    // segment 3
#define MV1 928      // voxel after the first face
#define MV2 960      // ... and after the second, the final voxel
#define MFD 992      // final offsets
#define MNSEG 1088   // segments
#define MLO 1120     // least and greatest voxel
#define MHI 1152
#define MTWO 1184    // a first face: segment 2 is used
#define MTHREE 1216  // a second face: segment 3 is used
#define MROWS 1248   // one segment's twelve rows, 384 B
#define MC1 1632     // the segments' terms as per-lane cells, 384 B each
#define MC2 2016
#define MC3 2400

DATA negone<>+0(SB)/4, $0xbf800000 // float32(-1)
GLOBL negone<>(SB), RODATA, $4

DATA ints<>+0(SB)/4, $1
DATA ints<>+4(SB)/4, $2
DATA ints<>+8(SB)/4, $4
DATA ints<>+12(SB)/4, $6
GLOBL ints<>(SB), RODATA, $16

// badblk<> stands in for the particle block of an index outside blk.
DATA badblk<>+96(SB)/4, $0xffffffff
GLOBL badblk<>(SB), RODATA, $256

// MLANE points R8 at lane l's mover record and R10 at its particle,
// stores the particle's address and its face byte.
#define MLANE(l) \
	MOVQ    $(16*l), R8; \
	CMPQ    CX, $l; \
	CMOVQLE DX, R8; \
	ADDQ    SI, R8; \
	MOVLQSX 12(R8), R9; \
	MOVQ    R9, R10; \
	SARQ    $3, R10; \
	IMUL3Q  $224, R10, R10; \
	LEAQ    (R10)(R9*4), R10; \
	ADDQ    DI, R10; \
	CMPQ    R9, R13; \
	CMOVQCC AX, R10; \
	MOVQ    R10, (MPTR+8*l)(SP); \
	MOVL    96(R10), R9; \
	CMPQ    R9, R11; \
	CMOVQCC DX, R9; \
	MOVBLZX (BX)(R9*1), R9; \
	CMOVQCC R12, R9; \
	MOVB    R9, (MFACE+l)(SP)

// FACE2 stores lane l's face byte at its voxel after the first face,
// 0x40 when that voxel is outside faces.
#define FACE2(l) \
	MOVL    (MV1+4*l)(SP), R9; \
	CMPQ    R9, R11; \
	CMOVQCC DX, R9; \
	MOVBLZX (BX)(R9*1), R9; \
	CMOVQCC R12, R9; \
	MOVB    R9, (MFACE2+l)(SP)

// PREFETCH prefetches the lines of the particle of the mover record at
// SI+off that the batch reads (a prefetch never faults, so an index
// outside blk needs no check).
#define PREFETCH(off) \
	MOVLQSX    (off+12)(SI), R9; \
	MOVQ       R9, R10; \
	SARQ       $3, R10; \
	IMUL3Q     $224, R10, R10; \
	LEAQ       (R10)(R9*4), R10; \
	PREFETCHT0 (DI)(R10*1); \
	PREFETCHT0 64(DI)(R10*1); \
	PREFETCHT0 224(DI)(R10*1)

// MFIRST loads the first lane of a half: dx dy dz voxel w ddx ddy ddz.
#define MFIRST(x0, x1, x2, x3, x4, x5, x6, x7) \
	VMOVSS 0(R10), x0; \
	VMOVSS 32(R10), x1; \
	VMOVSS 64(R10), x2; \
	VMOVSS 96(R10), x3; \
	VMOVSS 224(R10), x4; \
	VMOVSS 0(R8), x5; \
	VMOVSS 4(R8), x6; \
	VMOVSS 8(R8), x7

// MNEXT inserts the next lane at element imm>>4.
#define MNEXT(imm, x0, x1, x2, x3, x4, x5, x6, x7) \
	VINSERTPS $imm, 0(R10), x0, x0; \
	VINSERTPS $imm, 32(R10), x1, x1; \
	VINSERTPS $imm, 64(R10), x2, x2; \
	VINSERTPS $imm, 96(R10), x3, x3; \
	VINSERTPS $imm, 224(R10), x4, x4; \
	VINSERTPS $imm, 0(R8), x5, x5; \
	VINSERTPS $imm, 4(R8), x6, x6; \
	VINSERTPS $imm, 8(R8), x7, x7

// FIRSTFACE is faceFraction on one axis of the displacement at frame
// offset r from the offsets at d, and the strict-less selection: eff =
// ok ? max32(f, 0) : 2, where f = (sgn − d)/r and ok = r ≠ 0 and f < 1;
// a lane whose eff < s takes s, dir = sgn and the face code 2·axis +
// (r > 0), given as code = 2·axis.
#define FIRSTFACE(r, d, off, code) \
	VMOVUPS   (r+off)(SP), Y0; \
	VMOVUPS   (d+off)(SP), Y1; \
	VCMPPS    $0x1e, Y15, Y0, Y2; \
	VCMPPS    $0x11, Y15, Y0, Y3; \
	VBLENDVPS Y2, Y14, Y10, Y4; \
	VSUBPS    Y1, Y4, Y5; \
	VDIVPS    Y0, Y5, Y5; \
	VCMPPS    $0x11, Y14, Y5, Y6; \
	VORPS     Y3, Y2, Y3; \
	VANDPS    Y6, Y3, Y3; \
	VMAXPS    Y15, Y5, Y5; \
	VBLENDVPS Y3, Y5, Y9, Y5; \
	VCMPPS    $0x11, Y13, Y5, Y6; \
	VBLENDVPS Y6, Y5, Y13, Y13; \
	VBLENDVPS Y6, Y4, Y12, Y12; \
	VPSRLD    $31, Y2, Y7; \
	VPOR      code, Y7, Y7; \
	VBLENDVPS Y6, Y7, Y11, Y11

// SPLIT splits one axis of the displacement at r at s: seg = s·r, rem =
// r − seg, and d' = d + seg or, on the face axis (code>>1 == axis),
// −dir (Y12).
#define SPLIT(r, d, seg, d1, rem, off, axis) \
	VMOVUPS   (r+off)(SP), Y0; \
	VMULPS    Y0, Y13, Y1; \
	VMOVUPS   Y1, (seg+off)(SP); \
	VMOVUPS   (d+off)(SP), Y2; \
	VADDPS    Y1, Y2, Y2; \
	VSUBPS    Y1, Y0, Y0; \
	VMOVUPS   Y0, (rem+off)(SP); \
	VPSRLD    $1, Y11, Y3; \
	VPCMPEQD  axis, Y3, Y3; \
	VBLENDVPS Y3, Y12, Y2, Y2; \
	VMOVUPS   Y2, (d1+off)(SP)

// REACH ORs into Y6 whether the displacement at r reaches a face on one
// axis from the offsets at d: a third face.
#define REACH(r, d, off) \
	VMOVUPS   (r+off)(SP), Y0; \
	VMOVUPS   (d+off)(SP), Y2; \
	VCMPPS    $0x1e, Y15, Y0, Y3; \
	VCMPPS    $0x11, Y15, Y0, Y4; \
	VBLENDVPS Y3, Y14, Y10, Y5; \
	VSUBPS    Y2, Y5, Y5; \
	VDIVPS    Y0, Y5, Y5; \
	VCMPPS    $0x11, Y14, Y5, Y5; \
	VORPS     Y4, Y3, Y3; \
	VANDPS    Y5, Y3, Y3; \
	VORPS     Y3, Y6, Y6

// CROSS moves the voxels v through the faces with codes Y11, given the
// face bytes f of v: the step, or the wrap delta where the face is a
// grid face (zero for code 6). It ORs into Y6 a grid face that is not
// Wrap and a face byte 0x40.
#define CROSS(f, v) \
	VPSRLVD      Y11, f, Y3; \
	VPSLLD       $31, Y3, Y3; \
	VPBROADCASTD 4(R8), Y4; \
	VPSRLVD      Y11, Y4, Y4; \
	VPSLLD       $31, Y4, Y4; \
	VPERMD       8(R8), Y11, Y5; \
	VPERMD       40(R8), Y11, Y0; \
	VBLENDVPS    Y3, Y0, Y5, Y5; \
	VPADDD       Y5, v, v; \
	VANDNPS      Y3, Y4, Y4; \
	VPSLLD       $25, f, Y5; \
	VORPS        Y5, Y4, Y4; \
	VORPS        Y4, Y6, Y6

// VOXBAD ORs into Y6 the lanes whose voxel at frame offset v is outside
// [0, n), Y7 = n − 1.
#define VOXBAD(v) \
	VMOVDQU  v(SP), Y0; \
	VPCMPGTD Y7, Y0, Y1; \
	VPOR     Y0, Y1, Y1; \
	VPOR     Y1, Y6, Y6

// JROWS is one component's four rows of stage D — qh = qw·h over the
// pair (a, b) — masked by Y7 and stored to the frame at MROWS+r,
// flagging NaN rows in Y10.
#define JROWS(h, a, b, r) \
	VMULPS  h, Y11, Y14; \
	VSUBPS  a, Y13, Y9; \
	VMULPS  Y9, Y14, Y9; \
	VSUBPS  b, Y13, Y15; \
	VMULPS  Y15, Y9, Y9; \
	VADDPS  Y12, Y9, Y9; \
	VANDPS  Y7, Y9, Y9; \
	VCMPPS  $3, Y9, Y9, Y8; \
	VORPS   Y8, Y10, Y10; \
	VMOVUPS Y9, (MROWS+r)(SP); \
	VADDPS  a, Y13, Y9; \
	VMULPS  Y9, Y14, Y9; \
	VMULPS  Y15, Y9, Y9; \
	VSUBPS  Y12, Y9, Y9; \
	VANDPS  Y7, Y9, Y9; \
	VCMPPS  $3, Y9, Y9, Y8; \
	VORPS   Y8, Y10, Y10; \
	VMOVUPS Y9, (MROWS+r+32)(SP); \
	VADDPS  b, Y13, Y15; \
	VSUBPS  a, Y13, Y9; \
	VMULPS  Y9, Y14, Y9; \
	VMULPS  Y15, Y9, Y9; \
	VSUBPS  Y12, Y9, Y9; \
	VANDPS  Y7, Y9, Y9; \
	VCMPPS  $3, Y9, Y9, Y8; \
	VORPS   Y8, Y10, Y10; \
	VMOVUPS Y9, (MROWS+r+64)(SP); \
	VADDPS  a, Y13, Y9; \
	VMULPS  Y9, Y14, Y9; \
	VMULPS  Y15, Y9, Y9; \
	VADDPS  Y12, Y9, Y9; \
	VANDPS  Y7, Y9, Y9; \
	VCMPPS  $3, Y9, Y9, Y8; \
	VORPS   Y8, Y10, Y10; \
	VMOVUPS Y9, (MROWS+r+96)(SP)

// CELLROWS transposes the four rows at MROWS+r to the eight lanes' cells
// at frame offset c.
#define CELLROWS(r, c) \
	VMOVUPS      (MROWS+r)(SP), Y0; \
	VMOVUPS      (MROWS+r+32)(SP), Y1; \
	VMOVUPS      (MROWS+r+64)(SP), Y2; \
	VMOVUPS      (MROWS+r+96)(SP), Y3; \
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y4, Y5); \
	VMOVUPS      X0, (c+0*48)(SP); \
	VEXTRACTF128 $1, Y0, (c+4*48)(SP); \
	VMOVUPS      X1, (c+1*48)(SP); \
	VEXTRACTF128 $1, Y1, (c+5*48)(SP); \
	VMOVUPS      X2, (c+2*48)(SP); \
	VEXTRACTF128 $1, Y2, (c+6*48)(SP); \
	VMOVUPS      X3, (c+3*48)(SP); \
	VEXTRACTF128 $1, Y3, (c+7*48)(SP)

// TERMS is scatterCell's twelve terms for the segment at frame offset
// seg from offsets at frame offset d, masked by Y7 and written as
// per-lane cells at frame offset c.
#define TERMS(d, seg, c) \
	VBROADCASTSS half<>(SB), Y13; \
	VMULPS       (seg+0)(SP), Y13, Y3; \
	VMULPS       (seg+32)(SP), Y13, Y4; \
	VMULPS       (seg+64)(SP), Y13, Y5; \
	VBROADCASTSS 0(R8), Y11; \
	VMULPS       MW(SP), Y11, Y11; \
	VMOVUPS      (d+0)(SP), Y0; \
	VADDPS       Y3, Y0, Y0; \
	VMOVUPS      (d+32)(SP), Y1; \
	VADDPS       Y4, Y1, Y1; \
	VMOVUPS      (d+64)(SP), Y2; \
	VADDPS       Y5, Y2, Y2; \
	VMULPS       Y3, Y11, Y12; \
	VMULPS       Y4, Y12, Y12; \
	VMULPS       Y5, Y12, Y12; \
	VBROADCASTSS third<>(SB), Y13; \
	VMULPS       Y13, Y12, Y12; \
	VBROADCASTSS one<>(SB), Y13; \
	JROWS(Y3, Y1, Y2, 0); \
	JROWS(Y4, Y2, Y0, 128); \
	JROWS(Y5, Y0, Y1, 256); \
	CELLROWS(0, c+0); \
	CELLROWS(128, c+16); \
	CELLROWS(256, c+32)

// FINAL selects one axis's final offset: d2 + rem2 after two faces, d2
// after one, d1 after none (Y4 two, Y5 three).
#define FINAL(off) \
	VMOVUPS   (MD2+off)(SP), Y0; \
	VADDPS    (MREM2+off)(SP), Y0, Y1; \
	VBLENDVPS Y5, Y1, Y0, Y0; \
	VMOVUPS   (MD1+off)(SP), Y2; \
	VBLENDVPS Y4, Y0, Y2, Y2; \
	VMOVUPS   Y2, (MFD+off)(SP)

// ADDCELL adds lane R9/48's cell at frame offset c into ac[DX], the
// cell first.
#define ADDCELL(c) \
	LEAQ    (DX)(DX*2), R10; \
	SHLQ    $4, R10; \
	ADDQ    SI, R10; \
	VMOVUPS 0(R10), X0; \
	VADDPS  (c+0)(SP)(R9*1), X0, X0; \
	VMOVUPS X0, 0(R10); \
	VMOVUPS 16(R10), X1; \
	VADDPS  (c+16)(SP)(R9*1), X1, X1; \
	VMOVUPS X1, 16(R10); \
	VMOVUPS 32(R10), X2; \
	VADDPS  (c+32)(SP)(R9*1), X2, X2; \
	VMOVUPS X2, 32(R10)

// func moveBatchAVX2(blk []particle.Block, mv []particle.Mover, faces []uint8, ac []accum.Cell, con *moveConsts, tally *moveTally) int
TEXT ·moveBatchAVX2(SB), 0, $2784-120
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
	// The batch is mv's top min(len, 8) movers; prefetch the particles
	// of the eight below it, the next batch, when there are eight.
	MOVL    $8, R8
	MOVQ    CX, R9
	CMPQ    CX, R8
	CMOVQGT R8, CX     // lanes
	MOVQ    CX, MN(SP)
	SUBQ    CX, R9     // the batch's first mover
	SHLQ    $4, R9
	ADDQ    R9, SI
	CMPQ    R9, $128
	JLT     gather
	PREFETCH(-128)
	PREFETCH(-112)
	PREFETCH(-96)
	PREFETCH(-80)
	PREFETCH(-64)
	PREFETCH(-48)
	PREFETCH(-32)
	PREFETCH(-16)

gather:
	SHLQ    $3, R13    // indices blk addresses
	XORL    DX, DX
	MOVL    $0x40, R12
	MOVQ    $badblk<>(SB), AX

	// ---- Gather the lanes.
	MLANE(0)
	MFIRST(X0, X1, X2, X3, X4, X5, X6, X7)
	MLANE(1)
	MNEXT(0x10, X0, X1, X2, X3, X4, X5, X6, X7)
	MLANE(2)
	MNEXT(0x20, X0, X1, X2, X3, X4, X5, X6, X7)
	MLANE(3)
	MNEXT(0x30, X0, X1, X2, X3, X4, X5, X6, X7)
	MLANE(4)
	MFIRST(X8, X9, X10, X11, X12, X13, X14, X15)
	MLANE(5)
	MNEXT(0x10, X8, X9, X10, X11, X12, X13, X14, X15)
	MLANE(6)
	MNEXT(0x20, X8, X9, X10, X11, X12, X13, X14, X15)
	MLANE(7)
	MNEXT(0x30, X8, X9, X10, X11, X12, X13, X14, X15)
	VINSERTF128 $1, X8, Y0, Y0
	VINSERTF128 $1, X9, Y1, Y1
	VINSERTF128 $1, X10, Y2, Y2
	VINSERTF128 $1, X11, Y3, Y3
	VINSERTF128 $1, X12, Y4, Y4
	VINSERTF128 $1, X13, Y5, Y5
	VINSERTF128 $1, X14, Y6, Y6
	VINSERTF128 $1, X15, Y7, Y7
	VMOVUPS     Y0, (MD+0)(SP)
	VMOVUPS     Y1, (MD+32)(SP)
	VMOVUPS     Y2, (MD+64)(SP)
	VMOVUPS     Y3, MVOX(SP)
	VMOVUPS     Y4, MW(SP)
	VMOVUPS     Y5, (MDD+0)(SP)
	VMOVUPS     Y6, (MDD+32)(SP)
	VMOVUPS     Y7, (MDD+64)(SP)

	// ---- The first face, segment 1, and the voxel after the face.
	VXORPS       Y15, Y15, Y15
	VBROADCASTSS one<>(SB), Y14
	VMOVUPS      Y14, Y13
	VXORPS       Y12, Y12, Y12
	VPBROADCASTD ints<>+12(SB), Y11
	VBROADCASTSS negone<>(SB), Y10
	VBROADCASTSS two<>(SB), Y9
	FIRSTFACE(MDD, MD, 0, Y15)
	VPBROADCASTD ints<>+4(SB), Y8
	FIRSTFACE(MDD, MD, 32, Y8)
	VPBROADCASTD ints<>+8(SB), Y8
	FIRSTFACE(MDD, MD, 64, Y8)
	VCMPPS       $0x11, Y14, Y13, Y0 // s < 1
	VMOVUPS      Y0, MTWO(SP)

	VSUBPS       Y12, Y15, Y12
	VPBROADCASTD ints<>+0(SB), Y6
	VPBROADCASTD ints<>+4(SB), Y7
	SPLIT(MDD, MD, MSEG, MD1, MREM, 0, Y15)
	SPLIT(MDD, MD, MSEG, MD1, MREM, 32, Y6)
	SPLIT(MDD, MD, MSEG, MD1, MREM, 64, Y7)

	MOVQ      con+96(FP), R8
	VXORPS    Y6, Y6, Y6
	VPMOVZXBD MFACE(SP), Y2
	VMOVDQU   MVOX(SP), Y1
	CROSS(Y2, Y1)
	VMOVDQU   Y1, MV1(SP)
	VMOVDQU   Y1, MV2(SP)

	// ---- The second face and segment 2.
	VMOVUPS      Y6, MROWS(SP)
	VMOVUPS      Y14, Y13
	VXORPS       Y12, Y12, Y12
	VPBROADCASTD ints<>+12(SB), Y11
	FIRSTFACE(MREM, MD1, 0, Y15)
	VPBROADCASTD ints<>+4(SB), Y8
	FIRSTFACE(MREM, MD1, 32, Y8)
	VPBROADCASTD ints<>+8(SB), Y8
	FIRSTFACE(MREM, MD1, 64, Y8)
	VCMPPS       $0x11, Y14, Y13, Y0
	VANDPS       MTWO(SP), Y0, Y0
	VMOVUPS      Y0, MTHREE(SP)
	VMOVMSKPS    Y0, AX

	VSUBPS       Y12, Y15, Y12
	VPBROADCASTD ints<>+0(SB), Y6
	VPBROADCASTD ints<>+4(SB), Y7
	SPLIT(MREM, MD1, MSEG2, MD2, MREM2, 0, Y15)
	SPLIT(MREM, MD1, MSEG2, MD2, MREM2, 32, Y6)
	SPLIT(MREM, MD1, MSEG2, MD2, MREM2, 64, Y7)
	VMOVUPS      MROWS(SP), Y6

	// ---- Only when a lane crosses a second face: the voxel after it,
	// whether a third face follows, and segment 3's terms.
	TESTL AX, AX
	JEQ   planned
	FACE2(0)
	FACE2(1)
	FACE2(2)
	FACE2(3)
	FACE2(4)
	FACE2(5)
	FACE2(6)
	FACE2(7)
	VPMOVZXBD MFACE2(SP), Y2
	VMOVDQU   MV1(SP), Y1
	CROSS(Y2, Y1)
	VMOVDQU   Y1, MV2(SP)
	REACH(MREM2, MD2, 0)
	REACH(MREM2, MD2, 32)
	REACH(MREM2, MD2, 64)
	VXORPS    Y10, Y10, Y10
	VMOVUPS   MTHREE(SP), Y7
	TERMS(MD2, MREM2, MC3)
	VORPS     Y10, Y6, Y6

planned:
	// ---- Every voxel inside min(len(faces), len(ac)); final offsets,
	// segment counts and voxel windows.
	MOVQ         faces_len+56(FP), AX
	MOVQ         ac_len+80(FP), DX
	CMPQ         DX, AX
	CMOVQLT      DX, AX
	MOVL         $0x7fffffff, DX
	CMPQ         AX, DX
	CMOVQGT      DX, AX
	DECQ         AX
	VMOVD        AX, X7
	VPBROADCASTD X7, Y7
	VOXBAD(MVOX)
	VOXBAD(MV1)
	VOXBAD(MV2)

	VMOVUPS MTWO(SP), Y4
	VMOVUPS MTHREE(SP), Y5
	FINAL(0)
	FINAL(32)
	FINAL(64)

	VPBROADCASTD ints<>+0(SB), Y0
	VPSUBD       Y4, Y0, Y0
	VPSUBD       Y5, Y0, Y0
	VMOVDQU      Y0, MNSEG(SP)
	VMOVDQU      MVOX(SP), Y0
	VMOVDQU      MV1(SP), Y1
	VMOVDQU      MV2(SP), Y2
	VPMINSD      Y1, Y0, Y3
	VPMINSD      Y2, Y3, Y3
	VMOVDQU      Y3, MLO(SP)
	VPMAXSD      Y1, Y0, Y3
	VPMAXSD      Y2, Y3, Y3
	VMOVDQU      Y3, MHI(SP)

	// ---- Segments 1 and 2's terms; a NaN term makes the lane slow.
	VXORPS   Y10, Y10, Y10
	VPCMPEQD Y7, Y7, Y7
	TERMS(MD, MSEG, MC1)
	VMOVUPS  MTWO(SP), Y7
	TERMS(MD1, MSEG2, MC2)
	VORPS    Y10, Y6, Y6

	// ---- Finish lanes n−1 down to the first slow lane, BX (−1: none).
	MOVQ      MN(SP), CX
	MOVQ      $lanemask<>(SB), R10
	MOVQ      CX, AX
	SHLQ      $5, AX
	VMOVDQU   (R10)(AX*1), Y0
	VANDPS    Y0, Y6, Y0
	VMOVMSKPS Y0, AX
	MOVQ      $-1, BX
	BSRQ      AX, R9
	CMOVQNE   R9, BX
	MOVQ      CX, AX
	SUBQ      BX, AX
	DECQ      AX
	MOVQ      AX, ret+112(FP)

	MOVQ    ac_base+72(FP), SI
	MOVQ    tally+104(FP), R8
	MOVQ    0(R8), R11
	MOVLQSX 8(R8), R12
	MOVLQSX 12(R8), R13

	// Each lane adds its segments' cells in order and stores its final
	// offsets and voxel (DX: the last segment's).
apply:
	DECQ    CX
	CMPQ    CX, BX
	JLE     applied
	LEAQ    (CX)(CX*2), R9
	SHLQ    $4, R9           // R9 = 48·lane
	MOVLQSX MVOX(SP)(CX*4), DX
	ADDCELL(MC1)
	MOVL    MNSEG(SP)(CX*4), AX
	MOVLQSX MV1(SP)(CX*4), DX
	CMPL    AX, $2
	JLT     store
	ADDCELL(MC2)
	CMPL    AX, $3
	JLT     store
	MOVLQSX MV2(SP)(CX*4), DX
	ADDCELL(MC3)

store:
	ADDQ    AX, R11
	MOVQ    MPTR(SP)(CX*8), R10
	MOVL    (MFD+0)(SP)(CX*4), AX
	MOVL    AX, 0(R10)
	MOVL    (MFD+32)(SP)(CX*4), AX
	MOVL    AX, 32(R10)
	MOVL    (MFD+64)(SP)(CX*4), AX
	MOVL    AX, 64(R10)
	MOVL    DX, 96(R10)
	MOVLQSX MLO(SP)(CX*4), AX
	CMPQ    AX, R12
	CMOVQLT AX, R12
	MOVLQSX MHI(SP)(CX*4), AX
	CMPQ    AX, R13
	CMOVQGT AX, R13
	JMP     apply

applied:
	MOVQ R11, 0(R8)
	MOVL R12, 8(R8)
	MOVL R13, 12(R8)
	VZEROUPPER
	RET

none:
	MOVQ $0, ret+112(FP)
	RET
