//go:build !purego

package push

import (
	"govpic/internal/accum"
	"govpic/internal/interp"
	"govpic/internal/particle"
)

// advanceBlock16AVX512 is advanceBlockAVX2 over a block pair: it pushes
// the lanes [l0, l1) ⊂ [0, 16) of the blocks b and b+1 — lane l < 8 is
// lane l of b, lane l ≥ 8 lane l−8 of b+1 — with the same contract and
// the same bits, crosser bit l and out lane l included. Block b+1 is
// read and written only under the lane mask, so it need not exist when
// l1 ≤ 8. See push_avx512_amd64.s.
//
//go:noescape
func advanceBlock16AVX512(b *particle.Block, ip []interp.Coeffs, ac []accum.Cell, run *laneRun, con *laneConsts, out *laneVecs, l0, l1 int) uint32
