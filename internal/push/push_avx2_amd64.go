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

// moveBatchAVX2 plans the top batch of mv — up to eight movers, lane l
// being mv[len(mv)−n+l] — in one vector pass, finishes its fast movers
// from the top lane down until the first slow one, and prefetches the
// particles of the next batch. It returns how many movers it finished;
// their segments land in ac and their counts in tally. An index outside
// blk or a voxel outside faces or ac makes its lane slow without being
// dereferenced. Bitwise identical to moveBatchGo in the count and in
// everything written — see push_avx2_amd64.s.
//
//go:noescape
func moveBatchAVX2(blk []particle.Block, mv []particle.Mover, faces []uint8, ac []accum.Cell, con *moveConsts, tally *moveTally) int
