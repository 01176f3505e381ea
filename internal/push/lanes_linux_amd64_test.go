//go:build !purego

package push

import (
	"os"
	"strings"
	"testing"
)

// TestLanesMatchCPU cross-checks the CPUID/XCR0 width detection against
// the kernel's /proc/cpuinfo flags, which list only the features whose
// register state the OS enabled: AsmLanes must be 32 exactly when avx2,
// avx512f, avx512dq and avx512vl are all present, 8 with avx2 alone and
// 0 without, and the asm kernel's mover batch 16, 8 and none. Run with
// -v, it logs the widths this host's parity tests exercise, so a runner
// that silently skips the 32-lane push or the 16-lane batch shows.
func TestLanesMatchCPU(t *testing.T) {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "flags" {
			for _, f := range strings.Fields(val) {
				flags[f] = true
			}
			break
		}
	}
	if len(flags) == 0 {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	want := 0
	if flags["avx2"] {
		want = 8
		if flags["avx512f"] && flags["avx512dq"] && flags["avx512vl"] {
			want = 32
		}
	}
	batch := 0
	if AsmAvailable() {
		batch = (&Kernel{asmLanes: AsmLanes()}).batchLanes()
	}
	t.Logf("AsmLanes() = %d, mover batch %d lanes; the parity tests run the shapes %v", AsmLanes(), batch, sweepShapes())
	if AsmLanes() != want {
		t.Fatalf("AsmLanes() = %d, but /proc/cpuinfo's flags make it %d (missing per CPUID: %q)", AsmLanes(), want, avx512Missing)
	}
	if wantBatch := map[int]int{0: 0, 8: 8, 32: 16}[want]; batch != wantBatch {
		t.Fatalf("the mover batch takes %d lanes, but /proc/cpuinfo's flags make it %d", batch, wantBatch)
	}
}
