//go:build !purego

#include "textflag.h"

// Registers of loadRow: R8–R13 are ex, ey, ez, bx, by, bz at the
// group's first voxel and DI its first record; AX = 4·sx, BX = 4·sxy,
// SI = AX + BX; X13 = 0.5 and X14 = 0.25 in every lane. LD is MOVUPS
// for a group of four voxels and MOVSS for one: a MOVSS load zeroes
// lanes 1–3, which then compute on zeros and are never stored.
//
// Operand order is gc's for loadPlanesGo, lane for lane: with w0–w3 an
// E component's four edges in the loop's order and a⊕b an ADDPS whose
// destination is a,
//
//	f0 = ((w1⊕w0)⊕w2)⊕w3 for Ex and Ey, (w2⊕(w1⊕w0))⊕w3 for Ez
//	f1 = (w3⊕w1) − (w2⊕w0),  f2 = (w3⊕w2) − (w1⊕w0),  f3 = (w3⊕w0) − (w2⊕w1)
//
// each times 0.25, and the B pairs are (lo⊕hi)·0.5 and (hi − lo)·0.5,
// so a NaN meeting a NaN keeps the loop's payload.

// EQUAD computes one E component's four coefficients f0–f3 into X5,
// X6, X7, X3 from the edges at m0–m3; (ra, rb) is (X4, X2) for f0's
// Ex/Ey order and (X2, X4) for Ez's.
#define EQUAD(LD, m0, m1, m2, m3, ra, rb) \
	LD     m0, X0; \
	LD     m1, X1; \
	LD     m2, X2; \
	LD     m3, X3; \
	MOVAPS X1, X4; \
	ADDPS  X0, X4; \
	MOVAPS ra, X5; \
	ADDPS  rb, X5; \
	ADDPS  X3, X5; \
	MULPS  X14, X5; \
	MOVAPS X3, X6; \
	ADDPS  X1, X6; \
	MOVAPS X2, X7; \
	ADDPS  X0, X7; \
	SUBPS  X7, X6; \
	MULPS  X14, X6; \
	MOVAPS X3, X7; \
	ADDPS  X2, X7; \
	SUBPS  X4, X7; \
	MULPS  X14, X7; \
	ADDPS  X0, X3; \
	ADDPS  X1, X2; \
	SUBPS  X2, X3; \
	MULPS  X14, X3

// BQUAD computes the B coefficients: CBx0, DCBxDx, CBy0, DCByDy into
// X2, X1, X5, X4 and CBz0, DCBzDz into X10, X7.
#define BQUAD(LD) \
	LD     (R11), X0; \
	LD     4(R11), X1; \
	MOVAPS X0, X2; \
	ADDPS  X1, X2; \
	MULPS  X13, X2; \
	SUBPS  X0, X1; \
	MULPS  X13, X1; \
	LD     (R12), X3; \
	LD     (R12)(AX*1), X4; \
	MOVAPS X3, X5; \
	ADDPS  X4, X5; \
	MULPS  X13, X5; \
	SUBPS  X3, X4; \
	MULPS  X13, X4; \
	LD     (R13), X6; \
	LD     (R13)(BX*1), X7; \
	MOVAPS X6, X10; \
	ADDPS  X7, X10; \
	MULPS  X13, X10; \
	SUBPS  X6, X7; \
	MULPS  X13, X7

// TRANSPOSE4 turns four coefficient vectors a, b, c, d (lane k is
// voxel k) into four record quads, voxel k's in a, c, t, u for k = 0–3.
#define TRANSPOSE4(a, b, c, d, t, u) \
	MOVAPS   a, t; \
	UNPCKLPS b, a; \
	UNPCKHPS b, t; \
	MOVAPS   c, u; \
	UNPCKLPS d, c; \
	UNPCKHPS d, u; \
	MOVAPS   a, b; \
	MOVLHPS  c, a; \
	MOVHLPS  b, c; \
	MOVAPS   t, b; \
	MOVLHPS  u, t; \
	MOVHLPS  b, u

// GROUP4 writes the records of four voxels.
#define GROUP4(off) \
	TRANSPOSE4(X5, X6, X7, X3, X8, X9); \
	MOVUPS X5, off(DI); \
	MOVUPS X7, (off+72)(DI); \
	MOVUPS X8, (off+144)(DI); \
	MOVUPS X9, (off+216)(DI)

// func loadRow(c *Coeffs, ex, ey, ez, bx, by, bz *float32, n, sx, sxy int)
TEXT ·loadRow(SB), NOSPLIT, $0-80
	MOVQ c+0(FP), DI
	MOVQ ex+8(FP), R8
	MOVQ ey+16(FP), R9
	MOVQ ez+24(FP), R10
	MOVQ bx+32(FP), R11
	MOVQ by+40(FP), R12
	MOVQ bz+48(FP), R13
	MOVQ n+56(FP), CX
	MOVQ sx+64(FP), AX
	MOVQ sxy+72(FP), BX
	SHLQ $2, AX
	SHLQ $2, BX
	LEAQ (AX)(BX*1), SI
	MOVL $0x3f000000, DX // float32(0.5)
	MOVQ DX, X13
	SHUFPS $0, X13, X13
	MOVL $0x3e800000, DX // float32(0.25)
	MOVQ DX, X14
	SHUFPS $0, X14, X14
	CMPQ CX, $4
	JLT tail

quad:
	EQUAD(MOVUPS, (R8), (R8)(AX*1), (R8)(BX*1), (R8)(SI*1), X4, X2)
	GROUP4(0)
	EQUAD(MOVUPS, (R9), (R9)(BX*1), 4(R9), 4(R9)(BX*1), X4, X2)
	GROUP4(16)
	EQUAD(MOVUPS, (R10), 4(R10), (R10)(AX*1), 4(R10)(AX*1), X2, X4)
	GROUP4(32)
	BQUAD(MOVUPS)
	TRANSPOSE4(X2, X1, X5, X4, X8, X9)
	MOVUPS X2, 48(DI)
	MOVUPS X5, 120(DI)
	MOVUPS X8, 192(DI)
	MOVUPS X9, 264(DI)
	MOVAPS X10, X11
	UNPCKLPS X7, X10
	UNPCKHPS X7, X11
	MOVLPS X10, 64(DI)
	MOVHPS X10, 136(DI)
	MOVLPS X11, 208(DI)
	MOVHPS X11, 280(DI)
	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $16, R10
	ADDQ $16, R11
	ADDQ $16, R12
	ADDQ $16, R13
	ADDQ $288, DI
	SUBQ $4, CX
	CMPQ CX, $4
	JGE quad

tail:
	TESTQ CX, CX
	JEQ done
	EQUAD(MOVSS, (R8), (R8)(AX*1), (R8)(BX*1), (R8)(SI*1), X4, X2)
	TRANSPOSE4(X5, X6, X7, X3, X8, X9)
	MOVUPS X5, 0(DI)
	EQUAD(MOVSS, (R9), (R9)(BX*1), 4(R9), 4(R9)(BX*1), X4, X2)
	TRANSPOSE4(X5, X6, X7, X3, X8, X9)
	MOVUPS X5, 16(DI)
	EQUAD(MOVSS, (R10), 4(R10), (R10)(AX*1), 4(R10)(AX*1), X2, X4)
	TRANSPOSE4(X5, X6, X7, X3, X8, X9)
	MOVUPS X5, 32(DI)
	BQUAD(MOVSS)
	TRANSPOSE4(X2, X1, X5, X4, X8, X9)
	MOVUPS X2, 48(DI)
	UNPCKLPS X7, X10
	MOVLPS X10, 64(DI)
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ $4, R11
	ADDQ $4, R12
	ADDQ $4, R13
	ADDQ $72, DI
	DECQ CX
	JMP tail

done:
	RET
