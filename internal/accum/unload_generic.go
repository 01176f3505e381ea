//go:build !amd64 || purego

package accum

func (t *tasks) unloadRange(lo, hi int) { t.unloadRangeGo(lo, hi) }
