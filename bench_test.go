// Package govpic's benchmark suite regenerates every table and figure
// of the paper's evaluation (E1–E10 of DESIGN.md) plus the design
// ablations. Run everything with
//
//	go test -bench=. -benchmem
//
// Each benchmark runs its experiment once per iteration and reports the
// headline quantities as custom metrics, printing the full table on the
// first iteration so `go test -bench` output doubles as the
// reproduction record (EXPERIMENTS.md is generated from these).
// The physics benchmarks (E7–E9) are multi-second LPI runs; use
// -bench='E[0-6]' for the quick performance subset.
package govpic

import (
	"fmt"
	"sync"
	"testing"

	"govpic/internal/experiments"
)

// printOnce avoids duplicating each experiment's table across benchmark
// iterations.
var printOnce sync.Map

func report(b *testing.B, r experiments.Result) {
	if _, dup := printOnce.LoadOrStore(r.Name, true); !dup {
		b.Logf("\n%s", r.Format())
	}
}

func BenchmarkE1CampaignDecks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E1Campaign(100)
		report(b, r)
		// Full-scale particle-steps per step — the linear cost model.
		b.ReportMetric(r.Rows[0][2], "paper-particles")
	}
}

func BenchmarkE2InnerLoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.E2InnerLoop(24, 128, 20)
		if err != nil {
			b.Fatal(err)
		}
		report(b, r)
		row := r.Rows[0]
		b.ReportMetric(row[2], "Mpart/s")
		b.ReportMetric(row[4], "Gflop/s")
		b.ReportMetric(row[5], "GB/s")
		b.ReportMetric(row[6], "B/part")
	}
}

func BenchmarkE3KernelBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.E3KernelBreakdown(24, 64, 30, 1)
		if err != nil {
			b.Fatal(err)
		}
		report(b, r)
		b.ReportMetric(r.Rows[0][1], "push-share")
	}
}

func BenchmarkE4WeakScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.E4WeakScaling([]int{1, 2, 4, 8}, 12, 48, 20)
		if err != nil {
			b.Fatal(err)
		}
		report(b, r)
		last := r.Rows[len(r.Rows)-1]
		b.ReportMetric(last[3], "efficiency@8")
	}
}

func BenchmarkE5StrongScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.E5StrongScaling([]int{1, 2, 4, 8}, 48, 48, 20)
		if err != nil {
			b.Fatal(err)
		}
		report(b, r)
		last := r.Rows[len(r.Rows)-1]
		b.ReportMetric(last[2], "efficiency@8")
	}
}

func BenchmarkE6RoadrunnerModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E6RoadrunnerModel()
		report(b, r)
		last := r.Rows[len(r.Rows)-1]
		b.ReportMetric(last[2], "inner-PF@3060")
		b.ReportMetric(last[3], "sustained-PF@3060")
	}
}

func BenchmarkE7Reflectivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.E7Reflectivity([]float64{0.01, 0.02, 0.04, 0.07, 0.1}, experiments.Small)
		if err != nil {
			b.Fatal(err)
		}
		report(b, r)
		first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
		b.ReportMetric(last[2]/first[2], "R-rise")
	}
}

func BenchmarkE8Trapping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.E8Trapping(0.07, experiments.Small)
		if err != nil {
			b.Fatal(err)
		}
		report(b, r)
		b.ReportMetric(r.Rows[0][4], "plateau")
	}
}

func BenchmarkE9TimeHistory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.E9TimeHistory(0.01, 0.07, experiments.Small)
		if err != nil {
			b.Fatal(err)
		}
		report(b, r)
		b.ReportMetric(r.Rows[1][2], "burstiness-hi")
	}
}

func BenchmarkE10Conservation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.E10Conservation(16, 64, 200)
		if err != nil {
			b.Fatal(err)
		}
		report(b, r)
		b.ReportMetric(r.Rows[0][1], "energy-drift")
	}
}

// BenchmarkPipelinePush sweeps the intra-rank worker count of the
// pipelined particle push. The output is bit-identical across worker
// counts; Mpart/s and Mflop/s quantify the speedup (bounded by the
// host's core count — see GOMAXPROCS in the printed table).
func BenchmarkPipelinePush(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("W%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := experiments.PipelineSweep(24, 64, 20, []int{w})
				if err != nil {
					b.Fatal(err)
				}
				if _, dup := printOnce.LoadOrStore(fmt.Sprintf("%s/W%d", r.Name, w), true); !dup {
					b.Logf("\n%s", r.Format())
				}
				b.ReportMetric(r.Rows[0][1], "Mpart/s")
				b.ReportMetric(r.Rows[0][2], "Mflop/s")
			}
		})
	}
}

func BenchmarkAblationSort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationSort(24, 64, 30)
		if err != nil {
			b.Fatal(err)
		}
		report(b, r)
		b.ReportMetric(r.Rows[0][2], "speedup")
	}
}

func BenchmarkEVDispersionDiagram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.DispersionDiagram(512, 1024)
		if err != nil {
			b.Fatal(err)
		}
		report(b, r)
		b.ReportMetric(r.Rows[0][4], "err%@k2")
	}
}

func BenchmarkE7Reflectivity3D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.E7Reflectivity3D(0.06, 6)
		if err != nil {
			b.Fatal(err)
		}
		report(b, r)
		b.ReportMetric(r.Rows[0][3], "R3d")
	}
}
