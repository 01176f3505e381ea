// Command scaling runs the performance experiments: the inner-loop rate
// (E2), the kernel breakdown (E3), the weak and strong scaling curves
// (E4, E5), the sort ablation (A2), and the machine model — the campaign
// tier table (E1) and the calibrated Roadrunner extrapolation (E6),
// which reproduces the abstract's 0.488 / 0.374 Pflop/s headline at the
// full 3060-triblade machine.
//
// Usage:
//
//	scaling                       # everything at default sizes
//	scaling -experiment weak -ranks 1,2,4,8 -steps 50
//	scaling -experiment model     # E1 + E6 only (no simulation runs)
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"govpic/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("experiment", "all", "inner | breakdown | weak | strong | ablations | model | all")
		ranks = flag.String("ranks", "1,2,4,8", "rank counts for the scaling curves")
		cells = flag.Int("cells", 24, "x-cells (per rank for weak scaling)")
		ppc   = flag.Int("ppc", 64, "particles per cell")
		steps = flag.Int("steps", 30, "measured steps")
	)
	flag.Parse()

	rs, err := parseInts(*ranks)
	if err != nil {
		log.Fatal(err)
	}
	run := func(name string, f func() (experiments.Result, error)) {
		r, err := f()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Print(r.Format())
		fmt.Println()
	}
	want := func(name string) bool { return *exp == "all" || *exp == name }

	if want("inner") {
		run("inner", func() (experiments.Result, error) {
			return experiments.E2InnerLoop(*cells, *ppc, *steps)
		})
	}
	if want("breakdown") {
		run("breakdown", func() (experiments.Result, error) {
			return experiments.E3KernelBreakdown(*cells, *ppc, *steps, 1)
		})
	}
	if want("weak") {
		run("weak", func() (experiments.Result, error) {
			return experiments.E4WeakScaling(rs, *cells, *ppc, *steps)
		})
	}
	if want("strong") {
		run("strong", func() (experiments.Result, error) {
			return experiments.E5StrongScaling(rs, *cells*rs[len(rs)-1], *ppc, *steps)
		})
	}
	if want("ablations") {
		run("sort ablation", func() (experiments.Result, error) {
			return experiments.AblationSort(*cells, *ppc, *steps)
		})
	}
	if want("model") {
		run("campaign", func() (experiments.Result, error) { return experiments.E1Campaign(100), nil })
		run("roadrunner model", func() (experiments.Result, error) { return experiments.E6RoadrunnerModel(), nil })
	}
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad rank list entry %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}
