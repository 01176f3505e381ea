//go:build !purego

#include "textflag.h"

// The curl rows keep gc's scalar operand order: every SUBPS and MULPS
// has the difference (or the running term) as its destination, and the
// final ADDPS has the old E value as its destination, so a NaN meeting
// a NaN keeps the same payload as in sweepBGo and sweepEGo. LD and ST
// are MOVUPS for a group of four voxels and MOVSS for one: a MOVSS load
// zeroes lanes 1–3, which then compute on zeros and are never stored.

// BROW is one group of curlBRow. R8–R13 are ex, ey, ez, bx, by, bz at
// the row's first voxel; DX is the group's byte offset, AX = DX + 4·sx,
// BX = DX + 4·sxy; X12–X14 hold px, py, pz.
#define BROW(LD, ST) \
	LD    (R10)(AX*1), X0; \
	LD    (R10)(DX*1), X1; \
	SUBPS X1, X0; \
	MULPS X13, X0; \
	LD    (R9)(BX*1), X2; \
	LD    (R9)(DX*1), X3; \
	SUBPS X3, X2; \
	MULPS X14, X2; \
	SUBPS X2, X0; \
	LD    (R11)(DX*1), X2; \
	SUBPS X0, X2; \
	ST    X2, (R11)(DX*1); \
	LD    (R8)(BX*1), X4; \
	LD    (R8)(DX*1), X5; \
	SUBPS X5, X4; \
	MULPS X14, X4; \
	LD    4(R10)(DX*1), X6; \
	SUBPS X1, X6; \
	MULPS X12, X6; \
	SUBPS X6, X4; \
	LD    (R12)(DX*1), X6; \
	SUBPS X4, X6; \
	ST    X6, (R12)(DX*1); \
	LD    4(R9)(DX*1), X7; \
	SUBPS X3, X7; \
	MULPS X12, X7; \
	LD    (R8)(AX*1), X8; \
	SUBPS X5, X8; \
	MULPS X13, X8; \
	SUBPS X8, X7; \
	LD    (R13)(DX*1), X8; \
	SUBPS X7, X8; \
	ST    X8, (R13)(DX*1)

// func curlBRow(ex, ey, ez, bx, by, bz *float32, n, sx, sxy int, px, py, pz float32)
TEXT ·curlBRow(SB), NOSPLIT, $0-84
	MOVQ ex+0(FP), R8
	MOVQ ey+8(FP), R9
	MOVQ ez+16(FP), R10
	MOVQ bx+24(FP), R11
	MOVQ by+32(FP), R12
	MOVQ bz+40(FP), R13
	MOVQ n+48(FP), CX
	MOVQ sx+56(FP), AX
	MOVQ sxy+64(FP), BX
	SHLQ $2, AX
	SHLQ $2, BX
	XORQ DX, DX
	MOVSS px+72(FP), X12
	SHUFPS $0, X12, X12
	MOVSS py+76(FP), X13
	SHUFPS $0, X13, X13
	MOVSS pz+80(FP), X14
	SHUFPS $0, X14, X14
	CMPQ CX, $4
	JLT btail

bquad:
	BROW(MOVUPS, MOVUPS)
	ADDQ $16, AX
	ADDQ $16, BX
	ADDQ $16, DX
	SUBQ $4, CX
	CMPQ CX, $4
	JGE bquad

btail:
	TESTQ CX, CX
	JEQ bdone
	BROW(MOVSS, MOVSS)
	ADDQ $4, AX
	ADDQ $4, BX
	ADDQ $4, DX
	DECQ CX
	JMP btail

bdone:
	RET

// EROW is one group of curlERow. R8–R13 are ex, ey, ez, bx, by, bz and
// SI, DI, R15 are jx, jy, jz at the row's first voxel; DX is the
// group's byte offset, AX = DX − 4·sx, BX = DX − 4·sxy; X11–X14 hold
// px, py, pz, cj.
#define EROW(LD, ST) \
	LD     (R13)(DX*1), X0; \
	LD     (R13)(AX*1), X1; \
	MOVAPS X0, X2; \
	SUBPS  X1, X2; \
	MULPS  X12, X2; \
	LD     (R12)(DX*1), X3; \
	LD     (R12)(BX*1), X4; \
	MOVAPS X3, X5; \
	SUBPS  X4, X5; \
	MULPS  X13, X5; \
	SUBPS  X5, X2; \
	LD     (SI)(DX*1), X5; \
	MULPS  X14, X5; \
	SUBPS  X5, X2; \
	LD     (R8)(DX*1), X5; \
	ADDPS  X2, X5; \
	ST     X5, (R8)(DX*1); \
	LD     (R11)(DX*1), X6; \
	LD     (R11)(BX*1), X7; \
	MOVAPS X6, X8; \
	SUBPS  X7, X8; \
	MULPS  X13, X8; \
	LD     -4(R13)(DX*1), X9; \
	SUBPS  X9, X0; \
	MULPS  X11, X0; \
	SUBPS  X0, X8; \
	LD     (DI)(DX*1), X10; \
	MULPS  X14, X10; \
	SUBPS  X10, X8; \
	LD     (R9)(DX*1), X10; \
	ADDPS  X8, X10; \
	ST     X10, (R9)(DX*1); \
	LD     -4(R12)(DX*1), X9; \
	SUBPS  X9, X3; \
	MULPS  X11, X3; \
	LD     (R11)(AX*1), X9; \
	SUBPS  X9, X6; \
	MULPS  X12, X6; \
	SUBPS  X6, X3; \
	LD     (R15)(DX*1), X9; \
	MULPS  X14, X9; \
	SUBPS  X9, X3; \
	LD     (R10)(DX*1), X9; \
	ADDPS  X3, X9; \
	ST     X9, (R10)(DX*1)

// func curlERow(ex, ey, ez, bx, by, bz, jx, jy, jz *float32, n, sx, sxy int, px, py, pz, cj float32)
TEXT ·curlERow(SB), NOSPLIT, $0-112
	MOVQ ex+0(FP), R8
	MOVQ ey+8(FP), R9
	MOVQ ez+16(FP), R10
	MOVQ bx+24(FP), R11
	MOVQ by+32(FP), R12
	MOVQ bz+40(FP), R13
	MOVQ jx+48(FP), SI
	MOVQ jy+56(FP), DI
	MOVQ jz+64(FP), R15
	MOVQ n+72(FP), CX
	MOVQ sx+80(FP), AX
	MOVQ sxy+88(FP), BX
	SHLQ $2, AX
	SHLQ $2, BX
	NEGQ AX
	NEGQ BX
	XORQ DX, DX
	MOVSS px+96(FP), X11
	SHUFPS $0, X11, X11
	MOVSS py+100(FP), X12
	SHUFPS $0, X12, X12
	MOVSS pz+104(FP), X13
	SHUFPS $0, X13, X13
	MOVSS cj+108(FP), X14
	SHUFPS $0, X14, X14
	CMPQ CX, $4
	JLT etail

equad:
	EROW(MOVUPS, MOVUPS)
	ADDQ $16, AX
	ADDQ $16, BX
	ADDQ $16, DX
	SUBQ $4, CX
	CMPQ CX, $4
	JGE equad

etail:
	TESTQ CX, CX
	JEQ edone
	EROW(MOVSS, MOVSS)
	ADDQ $4, AX
	ADDQ $4, BX
	ADDQ $4, DX
	DECQ CX
	JMP etail

edone:
	RET
