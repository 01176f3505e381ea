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

// moveBatch16AVX512 is moveBatchAVX2 over the top batch of up to
// sixteen movers — lane l being mv[len(mv)−n+l], n = min(len(mv), 16) —
// as one 16-lane chain, with the same contract and the same bits: it
// finishes the fast lanes from the top down, stops at the first slow
// one and returns how many it finished, prefetching the particles of
// the next sixteen. Its bounds are narrower by what no particle of a
// grid holds: a mover is also slow when its index is at or past 2^28,
// a voxel it passes through is at or past 2^29, or its start voxel or
// the voxel after its first face is below 3 (a ghost voxel). See
// move_avx512_amd64.s.
//
//go:noescape
func moveBatch16AVX512(blk []particle.Block, mv []particle.Mover, faces []uint8, ac []accum.Cell, con *moveConsts, tally *moveTally) int
