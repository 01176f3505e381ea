//go:build !purego

package accum

// sumClear is sumClearGo as SSE2 ADDPS over whole cells. SSE2 is the
// amd64 baseline, so there is nothing to probe.
//
//go:noescape
func sumClear(dst []Cell, srcs [][]Cell)
