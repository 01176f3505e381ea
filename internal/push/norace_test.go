//go:build !race

package push

// raceBuild is false in normal builds: accumulator slots compare bit for
// bit, NaN payloads included (see race_test.go).
const raceBuild = false
