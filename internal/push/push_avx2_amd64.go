//go:build !purego

package push

import (
	"unsafe"

	"govpic/internal/interp"
	"govpic/internal/particle"
)

// The assembly hardcodes the particle.Block, interp.Coeffs, laneConsts
// and laneVecs layouts; fail the build if any of them moves. (The
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
var _ = [1]struct{}{}[unsafe.Offsetof(interp.Coeffs{}.Ey0)-16]
var _ = [1]struct{}{}[unsafe.Offsetof(interp.Coeffs{}.Ez0)-32]
var _ = [1]struct{}{}[unsafe.Offsetof(interp.Coeffs{}.CBx0)-48]
var _ = [1]struct{}{}[unsafe.Offsetof(interp.Coeffs{}.CBy0)-56]
var _ = [1]struct{}{}[unsafe.Offsetof(interp.Coeffs{}.CBz0)-64]
var _ = [1]struct{}{}[unsafe.Sizeof(interp.Coeffs{})-72]
var _ = [1]struct{}{}[unsafe.Offsetof(laneConsts{}.cdz)-16]
var _ = [1]struct{}{}[unsafe.Offsetof(laneVecs{}.ddy)-32]
var _ = [1]struct{}{}[unsafe.Offsetof(laneVecs{}.c)-96]
var _ = [1]struct{}{}[unsafe.Sizeof(laneVecs{})-480]

// advanceSpanAVX2 pushes the lanes [s0, s1) of block b against the
// interpolator cc: momentum update and masked in-place store of the
// new momenta and (non-crossing) offsets, with displacements and
// per-lane current contributions written to out. The return value has
// bit l set when lane l crossed a cell face; bits outside the span
// are garbage the caller must mask off. Bitwise identical per lane to
// advanceSpanGo — see push_avx2_amd64.s for the contract.
//
//go:noescape
func advanceSpanAVX2(b *particle.Block, cc *interp.Coeffs, con *laneConsts, out *laneVecs, s0, s1 int) uint32
