//go:build race

package interp

// raceBuild relaxes one check in race builds: coefficients that are NaN
// on both sides compare equal whatever their payloads (sameRecord). The
// race detector instruments every load and store with a runtime call,
// and around those calls gc may emit a commutative float add of
// loadPlanesGo with its operands swapped; when both addends are NaN,
// x86's ADDSS returns the destination's payload. The Go spec does not
// pin NaN payloads; only gc's normal codegen, which loadRow follows, does,
// so only non-race builds compare them (as push's raceBuild).
const raceBuild = true
