package push

import "fmt"

// Kernel names, as accepted by cmd/vpic -kernel and the deck "kernel"
// knob: which routine pushes the particle blocks. "asm" is the
// hand-written AVX2 routine, "go" the portable one; both are bitwise
// identical (see the parity property tests), so the choice is pure
// performance — the resolved name is recorded in reports and bench
// records to keep measurements attributable.
const (
	KernelAuto = "auto"
	KernelAsm  = "asm"
	KernelGo   = "go"
)

// AsmAvailable reports whether the assembly kernel can run on this
// build and CPU (amd64 with AVX2 and OS-enabled YMM state).
func AsmAvailable() bool { return asmAvailable }

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
