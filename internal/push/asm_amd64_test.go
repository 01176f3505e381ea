package push

import (
	"fmt"
	"testing"

	"govpic/internal/particle"
)

// TestAsmSpanMaskAllRanges runs both block routines over every sub-range
// [lo, hi) of a single 8-lane block — all 36 lane-mask combinations —
// and requires bitwise-identical particles and accumulators. Lanes
// outside the range must be untouched by the masked stores, including
// the garbage lanes beyond a 5-particle partial block.
func TestAsmSpanMaskAllRanges(t *testing.T) {
	if !AsmAvailable() {
		t.Skip("assembly kernel unavailable on this build/CPU")
	}
	for _, n := range []int{particle.Lanes, 5} {
		for lo := 0; lo < n; lo++ {
			for hi := lo + 1; hi <= n; hi++ {
				mk := func() (*rig, *Kernel) {
					r := newRig(6, 5, 4, 0.5)
					r.smoothFields(0.3)
					r.loadRandom(n, 0.6, uint64(17*n+lo*8+hi))
					return r, r.kernel(-1, 1, 0.24)
				}
				ra, ka := mk()
				rg, kg := mk()
				ka.Asm = true
				var bsA, bsG BlockState
				ka.advanceRange(ra.buf, lo, hi, ra.acc, &bsA)
				kg.advanceRange(rg.buf, lo, hi, rg.acc, &bsG)
				label := fmt.Sprintf("n=%d range [%d,%d)", n, lo, hi)
				for i := 0; i < n; i++ {
					if !bitEqParticle(ra.buf.At(i), rg.buf.At(i)) {
						t.Fatalf("%s: particle %d diverged:\nasm %+v\ngo  %+v",
							label, i, ra.buf.At(i), rg.buf.At(i))
					}
				}
				for v := range ra.acc.A {
					a, g := &ra.acc.A[v], &rg.acc.A[v]
					for j := 0; j < 4; j++ {
						if !bitEq32(a.JX[j], g.JX[j]) || !bitEq32(a.JY[j], g.JY[j]) || !bitEq32(a.JZ[j], g.JZ[j]) {
							t.Fatalf("%s: accumulator voxel %d diverged", label, v)
						}
					}
				}
				if len(bsA.Movers) != len(bsG.Movers) {
					t.Fatalf("%s: mover counts diverged: asm %d go %d", label, len(bsA.Movers), len(bsG.Movers))
				}
			}
		}
	}
}
