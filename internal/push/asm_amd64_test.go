package push

import (
	"fmt"
	"testing"

	"govpic/internal/particle"
)

// TestAsmSpanMaskAllRanges runs each assembly block routine against the
// Go one over every sub-range [lo, hi) of one call's lanes — the 36 of
// an 8-lane block, the 136 of a 16-lane call and the 528 of a 32-lane
// call — and over the trailing groups a range can end in: a lone block
// of 5 lanes and, wider, of 8, two blocks (16) and three (24), whose
// missing blocks are reached only through masked loads. It requires
// bitwise-identical particles, accumulators and movers. Lanes outside
// the range must be untouched by the masked stores, including the
// garbage lanes beyond a 5-particle partial block.
func TestAsmSpanMaskAllRanges(t *testing.T) {
	for _, lanes := range []int{particle.Lanes, 2 * particle.Lanes, 4 * particle.Lanes} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			skipNarrower(t, lanes)
			sizes := []int{lanes, 5}
			for n := particle.Lanes; n < lanes; n += particle.Lanes {
				sizes = append(sizes, n)
			}
			for _, n := range sizes {
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
						ka.Asm, ka.asmLanes = true, lanes
						var bsA, bsG BlockState
						ka.advanceRange(ra.buf, lo, hi, ra.acc, &bsA)
						kg.advanceRange(rg.buf, lo, hi, rg.acc, &bsG)
						checkSameSweep(t, fmt.Sprintf("n=%d range [%d,%d)", n, lo, hi), ra, &bsA, rg, &bsG)
					}
				}
			}
		})
	}
}
