package main

import (
	"fmt"
	"math/rand"

	"govpic/internal/core"
	"govpic/internal/deck"
)

// Reference sizing: every workload's timed loop is a fixed amount of
// work per requested second, chosen so that -seconds 8 (run_seconds in
// BENCHMARK.json) measures 6-10 s on the 2-core reference host. The
// counts are the same on every commit; a faster program finishes sooner.
const referenceSeconds = 8

type kind int

const (
	kindSim   kind = iota // core.Simulation, all ranks in-process
	kindTCP               // one core.RankSim per rank over transport.Connect
	kindSweep             // jobs through an in-process vpicd server
)

// workload is one named input set. Names are final: later issues and
// BENCHMARK.json cite them.
type workload struct {
	Name string
	Why  string
	Kind kind

	// Deck builds the generated input from the seed; the program under
	// test sees only the deck.
	Deck func(seed uint64) (deck.Deck, error)
	// Units is the timed loop's length at referenceSeconds: Step() calls
	// for simulations, jobs for the sweep.
	Units int
	// Warmup is the untimed step count before the timed loop.
	Warmup int
	// Periodic decks must conserve their particle count; DriftBound caps
	// the relative change of total energy over the timed loop. An open
	// deck (lpi.srs) is checked against EnergyBand instead.
	Periodic   bool
	DriftBound float64
	// EnergyBand brackets (total + lost)/initial at the end of the timed
	// loop for driven decks, at the reference length only.
	EnergyBand [2]float64
}

// Thermal decks use the JSON config path's defaults (n0 = 0.2 ncr).
const (
	thermalN0  = 0.2
	thermalUth = 0.05
)

// Sweep job shape: a 32×4×4 ppc-64 (32768 particles) one-rank thermal
// deck run 200 steps.
const (
	jobNX    = 32
	jobPPC   = 64
	jobSteps = 200
)

// jobStepsFor is the sweep's job length: jobSteps at the reference
// length and beyond (a longer run submits more jobs, not longer ones),
// shortened in proportion below it so a smoke run stays a smoke run.
func jobStepsFor(seconds float64) int {
	if seconds >= referenceSeconds {
		return jobSteps
	}
	return max(4, int(jobSteps*seconds/referenceSeconds+0.5))
}

// reseed plumbs the benchmark seed into every species' loader.Params.
func reseed(d deck.Deck, seed uint64) deck.Deck {
	species := append([]core.SpeciesConfig(nil), d.Cfg.Species...)
	for i := range species {
		if species[i].Load != nil {
			load := *species[i].Load
			load.Seed = seed + uint64(i)
			species[i].Load = &load
		}
	}
	d.Cfg.Species = species
	return d
}

func thermal(nx, ppc, ranks int, uth float64, sortInterval int) func(uint64) (deck.Deck, error) {
	return func(seed uint64) (deck.Deck, error) {
		d := deck.Thermal(nx, 4, 4, ppc, ranks, thermalN0, uth)
		d.Cfg.Workers = 1
		d.Cfg.Species[0].SortInterval = sortInterval
		return reseed(d, seed), nil
	}
}

func lpiSRS(seed uint64) (deck.Deck, error) {
	p := deck.DefaultLPI(0.07)
	p.PPC = 512
	p.Seed = seed
	d, err := deck.LPI(p)
	if err != nil {
		return deck.Deck{}, err
	}
	d.Cfg.Workers = 2
	return d, nil
}

// sweepJob is job i's config: the seed reaches the service only through
// the generated deck, as a small per-job spread of the temperature (the
// JSON deck has no seed knob, and none is added for the benchmark).
func sweepJob(rng *rand.Rand, seconds float64) deck.JSONConfig {
	return deck.JSONConfig{
		Deck: "thermal", Steps: jobStepsFor(seconds), NX: jobNX, PPC: jobPPC,
		Ranks: 1, Workers: 1, N0: thermalN0,
		Uth: thermalUth * (1 + 0.02*(rng.Float64()-0.5)),
	}
}

var workloads = []workload{
	{
		Name: "thermal.1rank",
		Why:  "plain single-threaded baseline: 262144 particles, 1 rank x 1 worker, push is ~95% of the step and comm is zero, so kernel work shows here",
		Kind: kindSim, Deck: thermal(256, 64, 1, thermalUth, 20),
		Units: 600, Warmup: 40, Periodic: true, DriftBound: 1e-3,
	},
	{
		Name: "thermal.2rank",
		Why:  "same global problem on 2 in-process ranks (= cores): what decomposition, boundary-first push and overlap cost; yields scaling_eff",
		Kind: kindSim, Deck: thermal(256, 64, 2, thermalUth, 20),
		Units: 900, Warmup: 40, Periodic: true, DriftBound: 1e-3,
	},
	{
		Name: "thermal.hot-unsorted",
		Why:  "uth 0.5 and no sorting: cell-crossers dominate and order decays, so run fusion stops helping; a push change that only wins sorted must pay here",
		Kind: kindSim, Deck: thermal(256, 64, 1, 0.5, 0),
		Units: 300, Warmup: 40, Periodic: true, DriftBound: 2e-2,
	},
	{
		Name: "exchange.2rank",
		Why:  "4096 particles on 2 in-process ranks, ~0.3 ms steps: latency-bound, fixed per-step costs (messages, accumulator clear/reduce, pool dispatch) dominate",
		Kind: kindSim, Deck: thermal(32, 8, 2, thermalUth, 20),
		Units: 25000, Warmup: 500, Periodic: true, DriftBound: 0.1, // ppc 8 heats numerically over 25k steps
	},
	{
		Name: "exchange.2rank-tcp",
		Why:  "the exchange.2rank deck as two RankSims over loopback TCP: isolates internal/transport; final CRCs must equal the in-process run",
		Kind: kindTCP, Deck: thermal(32, 8, 2, thermalUth, 20),
		Units: 800, Warmup: 20, Periodic: true, DriftBound: 2e-2,
	},
	{
		Name: "lpi.srs",
		Why:  "the paper's workload: laser-driven SRS slab, ppc 512, 1 rank x 2 workers; antenna, absorbing walls, Marder cleaning and pipelines all on the blocking path",
		Kind: kindSim, Deck: lpiSRS,
		Units: 1600, Warmup: 40, EnergyBand: [2]float64{5.2, 5.6},
	},
	{
		Name: "vpicd.sweep",
		Why:  "the operator's path: closed loop of 2 clients submitting 200-step thermal jobs to an in-process vpicd (1 runner, temp spool, checkpoint every 50)",
		Kind: kindSweep, Units: 18,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// units scales the reference length to the requested seconds. Fewer
// than minUnits would leave the percentiles without samples.
func (w *workload) units(seconds float64) int {
	const minUnits = 4
	n := int(float64(w.Units)*seconds/referenceSeconds + 0.5)
	return max(n, minUnits)
}

// warmup scales with the run so a smoke run is not all warm-up.
func (w *workload) warmup(seconds float64) int {
	n := int(float64(w.Warmup)*seconds/referenceSeconds + 0.5)
	return max(n, 2)
}
