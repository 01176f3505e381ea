//go:build !amd64 || purego

package accum

func sumClear(dst []Cell, srcs [][]Cell) { sumClearGo(dst, srcs) }
