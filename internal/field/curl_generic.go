//go:build !amd64 || purego

package field

func (t *curl) sweepB(lo, hi int) { t.sweepBGo(lo, hi) }

func (t *curl) sweepE(lo, hi int) { t.sweepEGo(lo, hi) }
