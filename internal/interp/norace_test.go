//go:build !race

package interp

// raceBuild is false in normal builds: records compare bit for bit, NaN
// payloads included (see race_test.go).
const raceBuild = false
