//go:build !amd64 || purego

package push

import (
	"govpic/internal/interp"
	"govpic/internal/particle"
)

// Builds without the assembly: ResolveKernel never returns "asm" here,
// and a Kernel with Asm set by hand gets the portable routine (which
// the assembly is bit-identical to anyway).
const asmAvailable = false

func advanceSpanAVX2(b *particle.Block, cc *interp.Coeffs, con *laneConsts, out *laneVecs, s0, s1 int) uint32 {
	return advanceSpanGo(b, cc, con, out, s0, s1)
}
