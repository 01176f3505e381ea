//go:build !purego

package push

// asmLanes is the width of the widest block routine this CPU runs: 32
// (advanceBlock32AVX512) with AVX2 and AVX-512 F, DQ and VL, 8
// (advanceBlockAVX2) with AVX2 alone, 0 without. An instruction set
// counts only when the OS also saves its registers across context
// switches (OSXSAVE + the XCR0 bits), otherwise the upper lanes are
// silently corrupted.
var asmLanes = detectLanes()

func detectLanes() int {
	switch {
	case !detectAVX2():
		return 0
	case avx512Missing == "":
		return 32
	}
	return 8
}

// avx512Missing names what keeps advanceBlock32AVX512 off this CPU, ""
// when nothing does.
var avx512Missing = missingAVX512()

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c&osxsave == 0 || c&avx == 0 {
		return false
	}
	const xmmYmmState = 0x6
	if lo, _ := xgetbv0(); lo&xmmYmmState != xmmYmmState {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return b&avx2 != 0
}

// missingAVX512 checks for AVX2, then AVX-512 F, DQ and VL (CPUID leaf
// 7) with the opmask and all 32 ZMM registers' state enabled (XCR0 bits
// 5..7 on top of 1..2), and names the first that is absent.
func missingAVX512() string {
	if !detectAVX2() {
		return "AVX2 with OS-enabled YMM state" // and XGETBV may not exist
	}
	const zmmState = 0xe6
	if lo, _ := xgetbv0(); lo&zmmState != zmmState {
		return "OS-enabled opmask and ZMM state (XCR0 bits 5-7)"
	}
	_, b, _, _ := cpuid(7, 0)
	for _, f := range []struct {
		bit  uint32
		name string
	}{{1 << 16, "AVX512F"}, {1 << 17, "AVX512DQ"}, {1 << 31, "AVX512VL"}} {
		if b&f.bit == 0 {
			return f.name
		}
	}
	return ""
}

// cpuid executes CPUID with the given EAX/ECX inputs.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the extended-state enable mask (EDX:EAX).
func xgetbv0() (eax, edx uint32)
