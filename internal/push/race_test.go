//go:build race

package push

// raceBuild relaxes one check in race builds: accumulator slots that are
// NaN on both sides compare equal whatever their payloads
// (sameSlot). The race detector instruments every load and store with a
// runtime call, and around those calls gc may emit a commutative float
// add with its operands swapped — in scatterCell, the JZ[2] and JZ[3]
// adds load the accumulator into the destination register, where the
// normal build adds the slot from memory into the term's register. When
// both addends are NaN, x86's ADDSS returns the destination's payload,
// so a slot that adds NaN to NaN (TestBlockVoxelPatterns/nan's lanes 6
// and 7) keeps the other addend's payload. The Go spec does not pin NaN
// payloads; only gc's normal codegen does, so only non-race builds
// compare them.
const raceBuild = true
