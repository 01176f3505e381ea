//go:build !purego

package push

import (
	"unsafe"

	"govpic/internal/particle"
)

// The assembly hardcodes the particle.Block, laneCoeffs, laneConsts and
// laneVecs layouts; fail the build if any of them moves. (The
// kernel uses unaligned vector loads and stores throughout, so no
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
var _ = [1]struct{}{}[unsafe.Offsetof(laneCoeffs{}.Ey0)-128]
var _ = [1]struct{}{}[unsafe.Offsetof(laneCoeffs{}.Ez0)-256]
var _ = [1]struct{}{}[unsafe.Offsetof(laneCoeffs{}.CBx0)-384]
var _ = [1]struct{}{}[unsafe.Offsetof(laneCoeffs{}.CBy0)-448]
var _ = [1]struct{}{}[unsafe.Offsetof(laneCoeffs{}.CBz0)-512]
var _ = [1]struct{}{}[unsafe.Sizeof(laneCoeffs{})-576]
var _ = [1]struct{}{}[unsafe.Offsetof(laneConsts{}.cdz)-16]
var _ = [1]struct{}{}[unsafe.Offsetof(laneVecs{}.ddy)-32]
var _ = [1]struct{}{}[unsafe.Offsetof(laneVecs{}.c)-96]
var _ = [1]struct{}{}[unsafe.Sizeof(laneVecs{})-480]

// advanceBlockAVX2 pushes the lanes [l0, l1) of block b, lane l against
// its own interpolator in lc: momentum update and masked in-place store
// of the new momenta and (non-crossing) offsets, with displacements and
// per-lane current contributions written to out. The return value has
// bit l set when lane l crossed a cell face; bits outside [l0, l1) are
// garbage the caller must not read. Bitwise identical per lane to
// advanceBlockGo — see push_avx2_amd64.s for the contract.
//
//go:noescape
func advanceBlockAVX2(b *particle.Block, lc *laneCoeffs, con *laneConsts, out *laneVecs, l0, l1 int) uint32
