//go:build !amd64 || purego

package push

import (
	"govpic/internal/accum"
	"govpic/internal/interp"
	"govpic/internal/particle"
)

// Builds without the assembly: asmLanes is 0, so ResolveKernel never
// returns "asm", Kernel.Asm stays false, and the routines below never
// run. The portable kernel pushes with advanceBlockGo and finishes every
// mover with moveP.
const asmLanes = 0

// avx512Missing is what keeps the 32-lane routine off this build.
const avx512Missing = "the assembly (a purego or non-amd64 build)"

func advanceBlockAVX2(b *particle.Block, ip []interp.Coeffs, ac []accum.Cell, run *laneRun, con *laneConsts, out *laneVecs, l0, l1 int) uint64 {
	panic("push: no AVX2 routine in this build")
}

func advanceBlock32AVX512(b *particle.Block, ip []interp.Coeffs, ac []accum.Cell, run *laneRun, con *laneConsts, out *laneVecs, l0, l1 int) uint64 {
	panic("push: no AVX-512 routine in this build")
}

func moveBatchAVX2(blk []particle.Block, mv []particle.Mover, faces []uint8, ac []accum.Cell, con *moveConsts, tally *moveTally) int {
	panic("push: no AVX2 batch routine in this build")
}

func moveBatch16AVX512(blk []particle.Block, mv []particle.Mover, faces []uint8, ac []accum.Cell, con *moveConsts, tally *moveTally) int {
	panic("push: no AVX-512 batch routine in this build")
}
