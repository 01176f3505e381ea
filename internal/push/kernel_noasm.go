//go:build !amd64 || purego

package push

import (
	"govpic/internal/accum"
	"govpic/internal/interp"
	"govpic/internal/particle"
)

// Builds without the assembly: ResolveKernel never returns "asm" here,
// and a Kernel with Asm set by hand gets the portable routine (which
// the assembly is bit-identical to anyway).
const asmLanes = 0

// avx512Missing is what keeps the 32-lane routine off this build.
const avx512Missing = "the assembly (a purego or non-amd64 build)"

func advanceBlockAVX2(b *particle.Block, ip []interp.Coeffs, ac []accum.Cell, run *laneRun, con *laneConsts, out *laneVecs, l0, l1 int) uint64 {
	return advanceBlockGo(b, ip, ac, run, con, out, l0, l1)
}

// advanceBlock32AVX512 never runs here: asmLanes is 0.
func advanceBlock32AVX512(b *particle.Block, ip []interp.Coeffs, ac []accum.Cell, run *laneRun, con *laneConsts, out *laneVecs, l0, l1 int) uint64 {
	panic("push: no AVX-512 routine in this build")
}

func moveBatchAVX2(blk []particle.Block, mv []particle.Mover, faces []uint8, ac []accum.Cell, con *moveConsts, tally *moveTally) int {
	return moveBatchGo(blk, mv, faces, ac, con, tally)
}
