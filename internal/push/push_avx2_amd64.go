//go:build !purego

package push

import (
	"unsafe"

	"govpic/internal/accum"
	"govpic/internal/interp"
	"govpic/internal/particle"
)

// The assembly hardcodes the particle.Block, particle.Mover,
// interp.Coeffs, accum.Cell, laneConsts, laneRun, laneVecs, moveConsts
// and moveTally layouts; fail the build if any of them moves. (The
// kernels use unaligned vector loads and stores throughout, so no
// allocation alignment beyond Go's natural 8-byte heap alignment is
// required — that is the whole alignment contract.)
var _ = [1]struct{}{}[unsafe.Offsetof(particle.Block{}.Dy)-32]
var _ = [1]struct{}{}[unsafe.Offsetof(particle.Block{}.Dz)-64]
var _ = [1]struct{}{}[unsafe.Offsetof(particle.Block{}.Voxel)-96]
var _ = [1]struct{}{}[unsafe.Offsetof(particle.Block{}.Ux)-128]
var _ = [1]struct{}{}[unsafe.Offsetof(particle.Block{}.Uy)-160]
var _ = [1]struct{}{}[unsafe.Offsetof(particle.Block{}.Uz)-192]
var _ = [1]struct{}{}[unsafe.Offsetof(particle.Block{}.W)-224]
var _ = [1]struct{}{}[unsafe.Sizeof(particle.Block{})-256]
var _ = [1]struct{}{}[unsafe.Offsetof(interp.Coeffs{}.Ey0)-16]
var _ = [1]struct{}{}[unsafe.Offsetof(interp.Coeffs{}.Ez0)-32]
var _ = [1]struct{}{}[unsafe.Offsetof(interp.Coeffs{}.CBx0)-48]
var _ = [1]struct{}{}[unsafe.Offsetof(interp.Coeffs{}.CBy0)-56]
var _ = [1]struct{}{}[unsafe.Offsetof(interp.Coeffs{}.CBz0)-64]
var _ = [1]struct{}{}[unsafe.Sizeof(interp.Coeffs{})-72]
var _ = [1]struct{}{}[unsafe.Offsetof(accum.Cell{}.JY)-16]
var _ = [1]struct{}{}[unsafe.Offsetof(accum.Cell{}.JZ)-32]
var _ = [1]struct{}{}[unsafe.Sizeof(accum.Cell{})-48]
var _ = [1]struct{}{}[unsafe.Offsetof(laneConsts{}.cdz)-16]
var _ = [1]struct{}{}[unsafe.Offsetof(laneRun{}.v)-8]
var _ = [1]struct{}{}[unsafe.Offsetof(laneRun{}.hi)-16]
var _ = [1]struct{}{}[unsafe.Offsetof(laneVecs{}.ddz)-256]
var _ = [1]struct{}{}[unsafe.Offsetof(particle.Mover{}.Idx)-12]
var _ = [1]struct{}{}[unsafe.Sizeof(particle.Mover{})-16]
var _ = [1]struct{}{}[unsafe.Offsetof(moveConsts{}.wrap)-4]
var _ = [1]struct{}{}[unsafe.Offsetof(moveConsts{}.step)-8]
var _ = [1]struct{}{}[unsafe.Offsetof(moveConsts{}.wrapd)-40]
var _ = [1]struct{}{}[unsafe.Offsetof(moveTally{}.lo)-8]
var _ = [1]struct{}{}[unsafe.Offsetof(moveTally{}.hi)-12]

// advanceBlockAVX2 pushes the lanes [l0, l1) of block b, lane l against
// its own interpolator ip[b.Voxel[l]]: momentum update and masked
// in-place store of the new momenta and (non-crossing) offsets, with
// displacements written to out and the in-cell lanes' current folded
// into ac through run. It returns the crosser bits of [l0, l1), or
// badVoxel — having written nothing — when a pushed lane's voxel is
// outside ip or ac. Bitwise identical to advanceBlockGo — see
// push_avx2_amd64.s for the contract.
//
//go:noescape
func advanceBlockAVX2(b *particle.Block, ip []interp.Coeffs, ac []accum.Cell, run *laneRun, con *laneConsts, out *laneVecs, l0, l1 int) uint64

// moveBatchAVX2 finishes the fast movers of the top batch of mv — lane
// l being mv[len(mv)−n+l], n = min(len(mv), 8) — from the top lane
// down, stops at the first slow one and returns how many it finished;
// it also prefetches the particles of the next batch. Their segments
// land in ac and their counts in tally. The driver runs moveP on the
// slow mover, and the next call plans the lanes below it again.
//
// A lane is fast when its index addresses blk, every voxel it passes
// through lies in faces and ac, it reaches at most two faces, each
// interior or Wrap, and none of its current terms is NaN; it gets what
// moveP would do, its one to three segments' terms (scatterCell's)
// added into ac segment by segment. A slow lane is left untouched, and
// a bad index or voxel is never dereferenced. A face always leaves a
// further segment, as in moveP: on the face axis s·r rounds below |r|
// for s < 1 and r − s·r is exact (Sterbenz). A NaN input always yields
// a NaN term, so the only NaN a fast lane meets is the default NaN and
// operand order cannot pick a payload. Bitwise identical to moveP,
// mover by mover — see push_avx2_amd64.s.
//
//go:noescape
func moveBatchAVX2(blk []particle.Block, mv []particle.Mover, faces []uint8, ac []accum.Cell, con *moveConsts, tally *moveTally) int
