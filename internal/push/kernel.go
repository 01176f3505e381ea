package push

import "fmt"

// Kernel names, as accepted by cmd/vpic -kernel and the deck "kernel"
// knob: which routine pushes the particle blocks. "asm" is the
// hand-written routine of the widest vector unit (AsmLanes), "go" the
// portable one; both are bitwise identical (see the parity property
// tests), so the choice is pure performance — the resolved name is
// recorded in reports and bench records to keep measurements
// attributable.
const (
	KernelAuto = "auto"
	KernelAsm  = "asm"
	KernelGo   = "go"
)

// AsmAvailable reports whether the assembly kernel can run on this
// build and CPU (amd64 with AVX2 and OS-enabled YMM state).
func AsmAvailable() bool { return asmLanes > 0 }

// AsmLanes is the number of lanes the assembly kernel pushes per call on
// this build and CPU: 32 (four blocks, AVX-512), 8 (one block, AVX2) or
// 0 (no assembly kernel). "asm" always means the widest routine; the
// widths are bit-identical, like asm and go.
func AsmLanes() int { return asmLanes }

// ResolveKernel canonicalizes a kernel request to the concrete name
// that will run: "asm" or "go". Empty and "auto" pick the assembly
// whenever the CPU supports it; an explicit "asm" on unsupported
// hardware is an error rather than a silent fallback, so ablation runs
// cannot quietly measure the wrong kernel.
func ResolveKernel(name string) (string, error) {
	switch name {
	case "", KernelAuto:
		if AsmAvailable() {
			return KernelAsm, nil
		}
		return KernelGo, nil
	case KernelAsm:
		if !AsmAvailable() {
			return "", fmt.Errorf("push: kernel %q requested but this build/CPU has no AVX2 support (use %q or %q)", KernelAsm, KernelGo, KernelAuto)
		}
		return KernelAsm, nil
	case KernelGo:
		return KernelGo, nil
	default:
		return "", fmt.Errorf("push: unknown kernel %q (want %q, %q or %q)", name, KernelAsm, KernelGo, KernelAuto)
	}
}
