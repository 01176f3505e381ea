package experiments

import (
	"fmt"
	"runtime"

	"govpic/internal/core"
	"govpic/internal/deck"
	"govpic/internal/perf"
)

// PipelineSweep measures the intra-rank pipeline layer: the same
// single-rank thermal deck is pushed with each worker count and the
// push-section throughput, flop rate, speedup over one worker and
// average pipeline concurrency are reported. Results are bit-identical
// across the sweep (the fixed-block decomposition guarantees it), so
// the rows differ only in speed. On a host with fewer cores than
// workers the extra workers time-share and the speedup saturates at
// the core count — note GOMAXPROCS in the output when reading the
// numbers.
func PipelineSweep(cells, ppc, steps int, workers []int) (Result, error) {
	var rows [][]float64
	var base float64
	for _, w := range workers {
		d := deck.Thermal(cells, 4, 4, ppc, 1, 0.2, 0.05)
		d.Cfg.Workers = w
		s, err := d.New()
		if err != nil {
			return Result{}, err
		}
		s.Run(2) // warm caches, settle movers
		t0 := core.SumReports(s.Reports())
		s.Run(steps)
		t := core.SumReports(s.Reports())
		elapsed := t.Elapsed(perf.Push) - t0.Elapsed(perf.Push)
		rate := perf.Rate(t.Pushed-t0.Pushed, elapsed)
		mflops := perf.GFlops(t.Flops-t0.Flops, elapsed) * 1e3
		if base == 0 {
			base = rate
		}
		rows = append(rows, []float64{
			float64(w), rate / 1e6, mflops, rate / base, t.Concurrency(perf.Push),
		})
	}
	return Result{
		Name:    "P1 pipeline sweep (intra-rank workers, 1 rank)",
		Headers: []string{"workers", "Mpart/s", "Mflop/s", "speedup", "avg busy"},
		Rows:    rows,
		Text: fmt.Sprintf("GOMAXPROCS=%d; speedup saturates at the core count; output is bit-identical across worker counts\n",
			runtime.GOMAXPROCS(0)),
	}, nil
}
