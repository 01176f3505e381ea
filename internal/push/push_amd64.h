// Layouts and helpers shared by the block routines of
// push_avx2_amd64.s and push_avx512_amd64.s.

// Block field offsets (asserted in push_avx2_amd64.go). In a block
// pair, block b+1's field f is at f+256.
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
#define ODDY 128
#define ODDZ 256

// laneRun offsets:
#define RN 0
#define RV 8
#define RLO 12
#define RHI 16

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

// TRANSPOSE4 transposes the 4×4 float block in each 128-bit slot of
// r0..r3 in place — afterwards rk holds element k of every input row —
// using t0 and t1 as temporaries. Applied to QUAD's rows, rk is field k
// of the group, lane by lane; applied to four current rows, rk holds,
// slot by slot, the four slots of lanes k, k+4 (and k+8, k+12).
#define TRANSPOSE4(r0, r1, r2, r3, t0, t1) \
	VUNPCKLPS r1, r0, t0; \
	VUNPCKHPS r1, r0, t1; \
	VUNPCKLPS r3, r2, r0; \
	VUNPCKHPS r3, r2, r1; \
	VSHUFPS   $0x44, r1, t1, r2; \
	VSHUFPS   $0xEE, r1, t1, r3; \
	VSHUFPS   $0xEE, r0, t0, r1; \
	VSHUFPS   $0x44, r0, t0, r0
