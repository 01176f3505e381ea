//go:build !purego

#include "textflag.h"

// EDGE gathers the edge at byte offset off from R8 (slot 0 of its own
// cell) and joff from DI (its J value): slots 1–3 of the other three
// cells are at SI, BX and DX from R8.
#define EDGE(off, joff) \
	MOVSS off(R8), X0; \
	ADDSS off(R8)(SI*1), X0; \
	ADDSS off(R8)(BX*1), X0; \
	ADDSS off(R8)(DX*1), X0; \
	MULSS X14, X0; \
	ADDSS joff(DI), X0; \
	MOVSS X0, joff(DI)

// func unloadRows(j, s *float32, nz, ny, n, sx, sxy, a, b int, c float32)
//
// Rows of n edges, ny rows a plane sx cells apart, nz planes sxy cells
// apart. The sum ((t0+t1)+t2)+t3 accumulates in X0, the running sum the
// destination of every ADDSS, then X0·c, then X0 + j, as gc compiles
// the family loops. R12 and R13 hold the row's first cell and J value,
// R11 and R15 the row strides in bytes; four edges per inner iteration,
// the 0–3 left over one at a time.
TEXT ·unloadRows(SB), NOSPLIT, $0-76
	MOVQ j+0(FP), R13
	MOVQ s+8(FP), R12
	MOVQ a+56(FP), AX
	MOVQ b+64(FP), CX
	IMULQ $48, AX
	IMULQ $48, CX
	MOVQ $4, SI
	SUBQ AX, SI
	MOVQ $8, BX
	SUBQ CX, BX
	MOVQ $12, DX
	SUBQ AX, DX
	SUBQ CX, DX
	MOVQ sx+40(FP), R11
	MOVQ R11, R15
	SHLQ $2, R15
	IMULQ $48, R11
	MOVSS c+72(FP), X14
	MOVQ nz+16(FP), R10
	TESTQ R10, R10
	JLE done

plane:
	MOVQ ny+24(FP), R9

row:
	MOVQ R12, R8
	MOVQ R13, DI
	MOVQ n+32(FP), CX
	CMPQ CX, $4
	JLT tail

quad:
	EDGE(0, 0)
	EDGE(48, 4)
	EDGE(96, 8)
	EDGE(144, 12)
	ADDQ $192, R8
	ADDQ $16, DI
	SUBQ $4, CX
	CMPQ CX, $4
	JGE quad

tail:
	TESTQ CX, CX
	JEQ rowdone
	EDGE(0, 0)
	ADDQ $48, R8
	ADDQ $4, DI
	DECQ CX
	JMP tail

rowdone:
	ADDQ R11, R12
	ADDQ R15, R13
	DECQ R9
	JNE row
	// The rows stepped ny·sx cells; the next plane starts sxy from this one.
	MOVQ sxy+48(FP), AX
	MOVQ ny+24(FP), CX
	IMULQ sx+40(FP), CX
	SUBQ CX, AX
	MOVQ AX, CX
	SHLQ $2, CX
	ADDQ CX, R13
	IMULQ $48, AX
	ADDQ AX, R12
	DECQ R10
	JNE plane

done:
	RET
