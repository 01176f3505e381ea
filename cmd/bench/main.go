// Command bench is the repository's benchmark: seven named workloads,
// gated end-to-end metrics, ungated per-layer metrics and a traced run.
// Every later performance or simplicity claim is measured with it; see
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run ./cmd/bench                     # the whole matrix, one set
//	go run ./cmd/bench -sets 5 -o a.json   # five sets, medians + quartiles
//	go run ./cmd/bench -smoke              # all seven workloads at 1/50 length
//	go run ./cmd/bench compare a.json b.json
//	go run ./cmd/bench --workload lpi.srs --seed 1 --seconds 8 --trace 0
//
// The last form is what the PR driver runs: one workload, and as the
// last line of standard output one JSON object with the end-to-end
// (-trace 0) or per-layer (-trace 1) metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// outDir receives everything a run leaves behind (traces, temporary
// spools, result files); it is listed in the repository's .gitignore.
var outDir = filepath.Join("cmd", "bench", "out")

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "run this one workload and print its result line (default: the whole matrix)")
	seed := flag.Uint64("seed", 20080415, "input seed, plumbed into every loader.Params.Seed")
	seconds := flag.Float64("seconds", referenceSeconds, "timed-loop length: fixed work sized to take this long on the reference host")
	trace := flag.Int("trace", 0, "1: traced run, layer pass and per-layer metrics; 0: end-to-end metrics")
	sets := flag.Int("sets", 1, "matrix mode: run the whole matrix this many times, alternating workload order")
	smoke := flag.Bool("smoke", false, "matrix mode: run every workload at 1/50 length")
	out := flag.String("o", filepath.Join(outDir, "result.json"), "matrix mode: result file")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	runtime.GOMAXPROCS(maxProcs())
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	if *smoke {
		*seconds = referenceSeconds / 50.0
	}
	if *name == "" {
		os.Exit(matrixMain(*seed, *seconds, *sets, *out))
	}
	wl, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	res, err := runWorkload(wl, *seed, *seconds, *trace != 0)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runWorkload measures one workload in this process and assembles its
// result line. A traced run also writes the Chrome trace and prints the
// layer table.
func runWorkload(wl *workload, seed uint64, seconds float64, traced bool) (*outcome, error) {
	fmt.Printf("host: %s\n", hostFingerprint())
	var tr *tracer
	defs := endToEnd
	if traced {
		tr = newTracer(wl.Name)
		defs = perLayer
	}
	tl := &tally{}
	run := runSim
	if wl.Kind == kindSweep {
		run = runSweep
	}
	vals, err := run(wl, seed, seconds, tr, tl)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.Name, err)
	}
	metrics, missing := collect(defs, vals)
	if len(missing) > 0 {
		return nil, fmt.Errorf("%s: metrics not produced: %v", wl.Name, missing)
	}
	if traced {
		path := filepath.Join(outDir, "trace-"+wl.Name+".json")
		if err := tr.writeChrome(path); err != nil {
			return nil, err
		}
		fmt.Printf("  wrote %s (%d spans; load in chrome://tracing or ui.perfetto.dev)\n", path, len(tr.spans))
	}
	printTable(wl.Name, defs, metrics)
	return &outcome{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: metrics}, nil
}

// printTable lists every metric by name with its value and unit.
func printTable(workload string, defs []metricDef, metrics map[string]metric) {
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		m := metrics[n]
		fmt.Printf("  %-20s %-34s %14.6g %s\n", workload, n, m.Value, m.Unit)
	}
}
