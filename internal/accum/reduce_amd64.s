//go:build !purego

#include "textflag.h"

// func sumClear(dst []Cell, srcs [][]Cell)
//
// One 48-byte cell is three 4-lane vectors. The main loop sums four
// cells at a time in X0–X11: loaded from srcs[0], then ADDPS of each
// later source in slice order, one vector through X12 at a time; the
// tail loop does the last 0–3 cells one at a time in X0–X2. The running
// sum is the destination of every ADDPS, as gc's scalar ADDSS keeps it,
// so every lane — NaN payloads included — equals sumClearGo's. Each
// source vector is overwritten with X13 (zero) right after it is read.
// srcs[k]'s base pointer is re-read from its 24-byte slice header per
// group of cells; DX is the byte offset into every row.
TEXT ·sumClear(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ srcs_base+24(FP), R8
	MOVQ srcs_len+32(FP), R9
	IMULQ $24, R9
	XORQ DX, DX
	XORPS X13, X13
	CMPQ CX, $4
	JLT one

quad:
	MOVQ 0(R8), AX
	MOVUPS 0(AX)(DX*1), X0
	MOVUPS 16(AX)(DX*1), X1
	MOVUPS 32(AX)(DX*1), X2
	MOVUPS 48(AX)(DX*1), X3
	MOVUPS 64(AX)(DX*1), X4
	MOVUPS 80(AX)(DX*1), X5
	MOVUPS 96(AX)(DX*1), X6
	MOVUPS 112(AX)(DX*1), X7
	MOVUPS 128(AX)(DX*1), X8
	MOVUPS 144(AX)(DX*1), X9
	MOVUPS 160(AX)(DX*1), X10
	MOVUPS 176(AX)(DX*1), X11
	MOVUPS X13, 0(AX)(DX*1)
	MOVUPS X13, 16(AX)(DX*1)
	MOVUPS X13, 32(AX)(DX*1)
	MOVUPS X13, 48(AX)(DX*1)
	MOVUPS X13, 64(AX)(DX*1)
	MOVUPS X13, 80(AX)(DX*1)
	MOVUPS X13, 96(AX)(DX*1)
	MOVUPS X13, 112(AX)(DX*1)
	MOVUPS X13, 128(AX)(DX*1)
	MOVUPS X13, 144(AX)(DX*1)
	MOVUPS X13, 160(AX)(DX*1)
	MOVUPS X13, 176(AX)(DX*1)
	MOVQ $24, BX

quadsrc:
	CMPQ BX, R9
	JGE quadstore
	MOVQ 0(R8)(BX*1), AX
	MOVUPS 0(AX)(DX*1), X12
	ADDPS X12, X0
	MOVUPS X13, 0(AX)(DX*1)
	MOVUPS 16(AX)(DX*1), X12
	ADDPS X12, X1
	MOVUPS X13, 16(AX)(DX*1)
	MOVUPS 32(AX)(DX*1), X12
	ADDPS X12, X2
	MOVUPS X13, 32(AX)(DX*1)
	MOVUPS 48(AX)(DX*1), X12
	ADDPS X12, X3
	MOVUPS X13, 48(AX)(DX*1)
	MOVUPS 64(AX)(DX*1), X12
	ADDPS X12, X4
	MOVUPS X13, 64(AX)(DX*1)
	MOVUPS 80(AX)(DX*1), X12
	ADDPS X12, X5
	MOVUPS X13, 80(AX)(DX*1)
	MOVUPS 96(AX)(DX*1), X12
	ADDPS X12, X6
	MOVUPS X13, 96(AX)(DX*1)
	MOVUPS 112(AX)(DX*1), X12
	ADDPS X12, X7
	MOVUPS X13, 112(AX)(DX*1)
	MOVUPS 128(AX)(DX*1), X12
	ADDPS X12, X8
	MOVUPS X13, 128(AX)(DX*1)
	MOVUPS 144(AX)(DX*1), X12
	ADDPS X12, X9
	MOVUPS X13, 144(AX)(DX*1)
	MOVUPS 160(AX)(DX*1), X12
	ADDPS X12, X10
	MOVUPS X13, 160(AX)(DX*1)
	MOVUPS 176(AX)(DX*1), X12
	ADDPS X12, X11
	MOVUPS X13, 176(AX)(DX*1)
	ADDQ $24, BX
	JMP quadsrc

quadstore:
	MOVUPS X0, 0(DI)(DX*1)
	MOVUPS X1, 16(DI)(DX*1)
	MOVUPS X2, 32(DI)(DX*1)
	MOVUPS X3, 48(DI)(DX*1)
	MOVUPS X4, 64(DI)(DX*1)
	MOVUPS X5, 80(DI)(DX*1)
	MOVUPS X6, 96(DI)(DX*1)
	MOVUPS X7, 112(DI)(DX*1)
	MOVUPS X8, 128(DI)(DX*1)
	MOVUPS X9, 144(DI)(DX*1)
	MOVUPS X10, 160(DI)(DX*1)
	MOVUPS X11, 176(DI)(DX*1)
	ADDQ $192, DX
	SUBQ $4, CX
	CMPQ CX, $4
	JGE quad


one:
	TESTQ CX, CX
	JEQ done
	MOVQ 0(R8), AX
	MOVUPS 0(AX)(DX*1), X0
	MOVUPS 16(AX)(DX*1), X1
	MOVUPS 32(AX)(DX*1), X2
	MOVUPS X13, 0(AX)(DX*1)
	MOVUPS X13, 16(AX)(DX*1)
	MOVUPS X13, 32(AX)(DX*1)
	MOVQ $24, BX

onesrc:
	CMPQ BX, R9
	JGE onestore
	MOVQ 0(R8)(BX*1), AX
	MOVUPS 0(AX)(DX*1), X12
	ADDPS X12, X0
	MOVUPS X13, 0(AX)(DX*1)
	MOVUPS 16(AX)(DX*1), X12
	ADDPS X12, X1
	MOVUPS X13, 16(AX)(DX*1)
	MOVUPS 32(AX)(DX*1), X12
	ADDPS X12, X2
	MOVUPS X13, 32(AX)(DX*1)
	ADDQ $24, BX
	JMP onesrc

onestore:
	MOVUPS X0, 0(DI)(DX*1)
	MOVUPS X1, 16(DI)(DX*1)
	MOVUPS X2, 32(DI)(DX*1)
	ADDQ $48, DX
	DECQ CX
	JMP one

done:
	RET
