package experiments

import (
	"fmt"
	"time"

	"govpic/internal/core"
	"govpic/internal/deck"
	"govpic/internal/particle"
	"govpic/internal/perf"
	"govpic/internal/push"
	"govpic/internal/rng"
)

// E2InnerLoop measures the particle inner loop in isolation on a
// single-rank thermal plasma: particles/s, ns/particle, and the
// single-precision flop rate under the audited flop count — the local
// analogue of the paper's 0.488 Pflop/s inner-loop measurement.
func E2InnerLoop(cells, ppc, steps int) (Result, error) {
	d := deck.Thermal(cells, 4, 4, ppc, 1, 0.2, 0.05)
	s, err := d.New()
	if err != nil {
		return Result{}, err
	}
	s.Run(2) // warm caches, settle movers
	t0 := core.SumReports(s.Reports())
	s.Run(steps)
	t := core.SumReports(s.Reports())
	elapsed := t.Elapsed(perf.Push) - t0.Elapsed(perf.Push)
	pushed := t.Pushed - t0.Pushed
	flops := t.Flops - t0.Flops
	bytesMoved := t.BytesMoved(perf.Push) - t0.BytesMoved(perf.Push)

	rate := perf.Rate(pushed, elapsed)
	gf := perf.GFlops(flops, elapsed)
	bytesRate := float64(bytesMoved) / elapsed.Seconds() / 1e9
	bPerPart := float64(bytesMoved) / float64(pushed)
	return Result{
		Name:    "E2 inner loop (thermal plasma, 1 rank)",
		Headers: []string{"particles", "steps", "Mpart/s", "ns/part", "Gflop/s", "GB/s moved", "B/part"},
		Rows: [][]float64{{
			float64(t.Particles), float64(steps),
			rate / 1e6, 1e9 / rate, gf, bytesRate, bPerPart,
		}},
		Text: fmt.Sprintf("arithmetic intensity %.2f flops/byte measured, %.2f unfused model (paper's data-motion argument: O(1), vs O(10²) for DGEMM)\n",
			float64(push.FlopsPerPush)/bPerPart,
			float64(push.FlopsPerPush)/float64(push.BytesPerPush)),
	}, nil
}

// E3KernelBreakdown times a full production-shaped step loop and reports
// the share of each kernel plus the sustained/inner ratio — the paper's
// 0.374/0.488 = 0.766 whole-code efficiency measurement.
func E3KernelBreakdown(cells, ppc, steps, nRanks int) (Result, error) {
	d := deck.Thermal(cells, 4, 4, ppc, nRanks, 0.2, 0.05)
	d.Cfg.CleanInterval = 10
	s, err := d.New()
	if err != nil {
		return Result{}, err
	}
	s.Run(2)
	start := time.Now()
	b0 := core.SumReports(s.Reports())
	s.Run(steps)
	wall := time.Since(start)
	b := core.SumReports(s.Reports())
	var deltas [perf.NumSections]time.Duration
	var total time.Duration
	for sec := perf.Section(0); sec < perf.NumSections; sec++ {
		deltas[sec] = b.Elapsed(sec) - b0.Elapsed(sec)
		total += deltas[sec]
	}
	innerFrac := float64(deltas[perf.Push]) / float64(total)
	sustainedGF := perf.GFlops(b.Flops-b0.Flops, wall)
	rows := make([][]float64, 0, int(perf.NumSections)+1)
	for sec := perf.Section(0); sec < perf.NumSections; sec++ {
		rows = append(rows, []float64{float64(sec), float64(deltas[sec]) / float64(total)})
	}
	return Result{
		Name:    "E3 kernel breakdown (sections: 0=push 1=sort 2=field 3=comm 4=diag)",
		Headers: []string{"section", "share"},
		Rows:    rows,
		Text: fmt.Sprintf("sustained/inner ratio = %.3f (paper: 0.374/0.488 = 0.766)\nwhole-code sustained = %.2f Gflop/s (counting inner-loop flops only, as the paper does)\n",
			innerFrac, sustainedGF),
	}, nil
}

// throughput runs a thermal deck and returns aggregate particle-step
// throughput (advances/s of wall time) and comm bytes per step.
func throughput(cellsX, ppc, steps, nRanks int) (float64, float64, error) {
	d := deck.Thermal(cellsX, 4, 4, ppc, nRanks, 0.2, 0.05)
	s, err := d.New()
	if err != nil {
		return 0, 0, err
	}
	s.Run(2)
	t0 := core.SumReports(s.Reports())
	start := time.Now()
	s.Run(steps)
	wall := time.Since(start)
	t := core.SumReports(s.Reports())
	rate := perf.Rate(t.Pushed-t0.Pushed, wall)
	commPerStep := float64(sentBytes(t)-sentBytes(t0)) / float64(steps)
	return rate, commPerStep, nil
}

// sentBytes returns the payload bytes a report's exchange classes sent.
func sentBytes(r core.RankReport) int64 {
	var n int64
	for _, c := range r.Classes {
		n += c.Bytes
	}
	return n
}

// E4WeakScaling keeps the per-rank workload fixed and grows the rank
// count. On a multi-core host the aggregate throughput curve is the
// weak-scaling curve; on a single core it measures the decomposition +
// communication overhead directly (efficiency = aggregate throughput
// relative to 1 rank), which is the machine-independent part of the
// paper's near-ideal scaling claim. The Roadrunner model (E6) carries
// the extrapolation to 3060 triblades.
func E4WeakScaling(ranks []int, cellsPerRank, ppc, steps int) (Result, error) {
	var rows [][]float64
	var base float64
	for _, n := range ranks {
		rate, comm, err := throughput(cellsPerRank*n, ppc, steps, n)
		if err != nil {
			return Result{}, err
		}
		if base == 0 {
			base = rate
		}
		rows = append(rows, []float64{float64(n), float64(cellsPerRank * n * 16 * ppc),
			rate / 1e6, rate / base, comm / 1e3})
	}
	return Result{
		Name:    "E4 weak scaling (fixed particles per rank)",
		Headers: []string{"ranks", "particles", "Mpart/s", "efficiency", "kB comm/step"},
		Rows:    rows,
	}, nil
}

// E5StrongScaling keeps the global problem fixed and grows the rank
// count.
func E5StrongScaling(ranks []int, cellsX, ppc, steps int) (Result, error) {
	var rows [][]float64
	var base float64
	for _, n := range ranks {
		rate, comm, err := throughput(cellsX, ppc, steps, n)
		if err != nil {
			return Result{}, err
		}
		if base == 0 {
			base = rate
		}
		rows = append(rows, []float64{float64(n), rate / 1e6, rate / base, comm / 1e3})
	}
	return Result{
		Name:    "E5 strong scaling (fixed global problem)",
		Headers: []string{"ranks", "Mpart/s", "efficiency", "kB comm/step"},
		Rows:    rows,
	}, nil
}

// AblationSort measures the cache-locality benefit VPIC's periodic sort
// exists for (A2): the same particle set is traversed in voxel order and
// in a random permutation (the worst case an unsorted long run decays
// toward). The grid must exceed cache for the effect to appear; thermal
// decorrelation is too slow to wait for, so the shuffle constructs the
// decayed state directly.
func AblationSort(cellsX, ppc, steps int) (Result, error) {
	build := func() (*core.Simulation, error) {
		d := deck.Thermal(cellsX, 16, 16, ppc, 1, 0.2, 0.05)
		d.Cfg.Species[0].SortInterval = 0
		return d.New()
	}
	measure := func(s *core.Simulation) float64 {
		s.Run(2)
		t0 := core.SumReports(s.Reports())
		s.Run(steps)
		t := core.SumReports(s.Reports())
		return perf.Rate(t.Pushed-t0.Pushed, t.Elapsed(perf.Push)-t0.Elapsed(perf.Push))
	}

	sortedSim, err := build()
	if err != nil {
		return Result{}, err
	}
	sorted := measure(sortedSim) // loader emits cells in order: sorted

	shuffledSim, err := build()
	if err != nil {
		return Result{}, err
	}
	shuffle(shuffledSim.Ranks[0].Species[0].Buf)
	shuffled := measure(shuffledSim)

	return Result{
		Name:    "A2 sort ablation (voxel-ordered vs shuffled traversal)",
		Headers: []string{"sorted Mp/s", "shuffled Mp/s", "speedup"},
		Rows:    [][]float64{{sorted / 1e6, shuffled / 1e6, sorted / shuffled}},
	}, nil
}

// shuffle applies a deterministic Fisher-Yates permutation.
func shuffle(b *particle.Buffer) {
	src := rng.New(0xabcde, 0)
	for i := b.N() - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		pi, pj := b.At(i), b.At(j)
		b.Set(i, pj)
		b.Set(j, pi)
	}
}
