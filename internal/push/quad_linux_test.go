package push

import (
	"fmt"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"

	"govpic/internal/particle"
)

// TestQuadTailAtGuardPage puts a trailing group of one, two or three
// blocks at the very end of a mapped page whose successor is PROT_NONE
// and pushes every lane range of it — as a 5-lane block and as full
// groups of 8, 16 and 24 lanes — through the 32-lane routine: the
// call's missing blocks lie on the guard page, so a load or store of
// them that the lane mask does not suppress faults. The result must be
// the Go routine's, bit for bit.
func TestQuadTailAtGuardPage(t *testing.T) {
	skipNarrower(t, 4*particle.Lanes)
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}

	for _, n := range []int{5, particle.Lanes, 2 * particle.Lanes, 3 * particle.Lanes} {
		nb := (n + particle.LaneMask) >> particle.LaneShift
		at := unsafe.Pointer(&mem[page-nb*particle.BlockBytes])
		guarded := &particle.Buffer{Blk: unsafe.Slice((*particle.Block)(at), nb)}
		for lo := 0; lo < n; lo++ {
			for hi := lo + 1; hi <= n; hi++ {
				mk := func() (*rig, *Kernel) {
					r := newRig(6, 5, 4, 0.5)
					r.smoothFields(0.3)
					r.loadRandom(n, 0.6, uint64(31*n+lo*8+hi))
					return r, r.kernel(-1, 1, 0.24)
				}
				ra, ka := mk()
				rg, kg := mk()
				copy(guarded.Blk, ra.buf.Blk)
				ka.Asm = true
				var bsA, bsG BlockState
				label := fmt.Sprintf("n=%d range [%d,%d)", n, lo, hi)
				if msg := blockPanic(func() { ka.advanceRange(guarded, lo, hi, ra.acc, &bsA) }); msg != "" {
					t.Fatalf("%s: %s", label, msg)
				}
				copy(ra.buf.Blk, guarded.Blk)
				kg.advanceRange(rg.buf, lo, hi, rg.acc, &bsG)
				checkSameSweep(t, label, ra, &bsA, rg, &bsG)
			}
		}
	}
}
