//go:build !purego

package push

import (
	"govpic/internal/accum"
	"govpic/internal/interp"
	"govpic/internal/particle"
)

// advanceBlock32AVX512 is advanceBlockAVX2 over four blocks: it pushes
// the lanes [l0, l1) ⊂ [0, 32), l0 < 8, of the blocks b … b+3 — lane l
// is lane l mod 8 of block b + l/8 — as two 16-lane chains, with the
// same contract and the same bits, crosser bit l and out lane l
// included. Blocks b+1 … b+3 are read and written only under the lane
// mask, so they need not exist beyond lane l1. See
// push_avx512_amd64.s.
//
//go:noescape
func advanceBlock32AVX512(b *particle.Block, ip []interp.Coeffs, ac []accum.Cell, run *laneRun, con *laneConsts, out *laneVecs, l0, l1 int) uint64
