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

// Block field offsets (asserted in push_avx2_amd64.go):
#define BDX 0
#define BDY 32
#define BDZ 64
#define BVOX 96
#define BUX 128
#define BUY 160
#define BUZ 192
#define BW 224

// laneVecs offsets:
#define ODDX 0
#define ODDY 32
#define ODDZ 64

// laneRun offsets:
#define RN 0
#define RV 8
#define RLO 12
#define RHI 16

// Frame layout:
#define FMASK 0    // lane range mask [l0, l1), 32 B
#define FVOX 32    // the checked lane voxels, 32 B
#define FROWS 64   // stage D's 12 current rows (JX0..3, JY0..3, JZ0..3), 384 B
#define FCELLS 448 // the rows as 8 per-lane accum.Cells, 384 B

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

// TRANSPOSE4 transposes the 4×4 float block in each 128-bit half of
// r0..r3 in place — afterwards rk holds element k of every input row —
// using t0 and t1 as temporaries. Applied to QUAD's rows, rk is field k
// of the group for lanes 0-7; applied to four current rows, rk is lane
// k's (low half) and lane k+4's (high half) four slots.
#define TRANSPOSE4(r0, r1, r2, r3, t0, t1) \
	VUNPCKLPS r1, r0, t0; \
	VUNPCKHPS r1, r0, t1; \
	VUNPCKLPS r3, r2, r0; \
	VUNPCKHPS r3, r2, r1; \
	VSHUFPS   $0x44, r1, t1, r2; \
	VSHUFPS   $0xEE, r1, t1, r3; \
	VSHUFPS   $0xEE, r0, t0, r1; \
	VSHUFPS   $0x44, r0, t0, r0

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

// func advanceBlockAVX2(b *particle.Block, ip []interp.Coeffs, ac []accum.Cell, run *laneRun, con *laneConsts, out *laneVecs, l0, l1 int) uint32
TEXT ·advanceBlockAVX2(SB), 0, $832-100
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
	MOVL $0xffffffff, ret+96(FP) // badVoxel
	VZEROUPPER
	RET
