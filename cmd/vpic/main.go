// Command vpic runs one of the built-in input decks and emits an energy
// history CSV, mirroring how VPIC itself is driven by compiled decks.
//
// Usage:
//
//	vpic -deck twostream -steps 2000 -out energy.csv
//	vpic -deck lpi -a0 0.03 -steps 4000 -ranks 2
//	vpic -deck thermal -checkpoint state.ckpt
//	vpic -config run.json                  # file-driven deck (see deck.JSONConfig)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"govpic/internal/balance"
	"govpic/internal/core"
	"govpic/internal/deck"
	"govpic/internal/diag"
	"govpic/internal/output"
	"govpic/internal/perf"
)

func main() {
	var (
		name    = flag.String("deck", "thermal", "deck: thermal | spike | oscillation | twostream | weibel | landau | lpi")
		steps   = flag.Int("steps", 500, "number of time steps")
		every   = flag.Int("every", 10, "energy sample interval (steps)")
		ranks   = flag.Int("ranks", 1, "domain-decomposed rank count")
		workers = flag.Int("workers", 0, "pipeline workers per rank (0 = CPUs/rank, capped at 8)")
		kernel  = flag.String("kernel", "", "push kernel's block routine: asm | go | auto (default auto; bit-identical either way)")
		ppc     = flag.Int("ppc", 64, "particles per cell")
		nx      = flag.Int("nx", 64, "cells along x (non-LPI decks)")
		a0      = flag.Float64("a0", 0.02, "laser strength (lpi deck)")
		out     = flag.String("out", "", "energy history CSV path (default stdout summary only)")
		ckpt    = flag.String("checkpoint", "", "write a checkpoint here at the end")
		restore = flag.String("restore", "", "restore state from this checkpoint before running")
		dump    = flag.String("dump", "", "write a binary field snapshot here at the end")
		summary = flag.String("summary", "", "write a JSON run summary here at the end")
		config  = flag.String("config", "", "JSON deck config (overrides -deck and sizing flags)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the step loop here")
		memProf = flag.String("memprofile", "", "write a heap profile here at the end")

		balMode = flag.String("balance", "", "dynamic load balancing: off | online (default: deck/config setting)")
		balInt  = flag.Int("balance-interval", 0, "steps between balance checks (0 = default 10)")
		balThr  = flag.Float64("balance-threshold", 0, "max/mean particle imbalance that triggers a repartition (0 = default 1.25)")

		// Distributed mode: -local-ranks forks one process per rank on
		// this machine; -rank/-join runs one rank of a (possibly
		// multi-machine) TCP world.
		rank       = flag.Int("rank", -1, "this process's rank in a distributed run (-1 = in-process)")
		join       = flag.String("join", "", "rendezvous address (rank 0 listens here, peers dial it)")
		listen     = flag.String("listen", "", "mesh listen address of this rank (default: any port)")
		localRanks = flag.Int("local-ranks", 0, "fork N local processes, one per rank, over TCP")
		stateCRC   = flag.String("state-crc", "", "write the per-rank state CRC fingerprint JSON here")
		commJSON   = flag.String("comm-json", "", "write per-rank comm link/class stats JSON here")
		heartbeat  = flag.Duration("heartbeat", 0, "transport heartbeat interval (0 = default)")
		peerTO     = flag.Duration("peer-timeout", 0, "transport failure-detection timeout (0 = default)")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	// These flags act only on the in-process path: a distributed run
	// refuses them, naming each, instead of dropping them.
	if *localRanks > 1 || *rank >= 0 {
		var bad []string
		for _, name := range []string{"restore", "checkpoint", "dump", "summary", "cpuprofile", "memprofile"} {
			if set[name] {
				bad = append(bad, "-"+name)
			}
		}
		if len(bad) > 0 {
			log.Fatalf("%s: not supported by a distributed run (-rank, -local-ranks)", strings.Join(bad, ", "))
		}
	}

	if *localRanks > 1 {
		os.Exit(launchLocal(*localRanks, os.Args[1:]))
	}

	var d deck.Deck
	var err error
	if *config != "" {
		f, ferr := os.Open(*config)
		if ferr != nil {
			log.Fatal(ferr)
		}
		var cfgSteps int
		d, cfgSteps, err = deck.FromJSON(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		*steps = cfgSteps
	} else {
		d, err = buildDeck(*name, *nx, *ppc, *ranks, *a0)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *workers != 0 {
		d.Cfg.Workers = *workers
	}
	if *kernel != "" {
		d.Cfg.Kernel = *kernel
	}
	if *balMode != "" {
		mode, err := balance.ParseMode(*balMode)
		if err != nil {
			log.Fatal(err)
		}
		d.Cfg.Balance.Mode = mode
	}
	if *balInt != 0 {
		d.Cfg.Balance.Interval = *balInt
	}
	if *balThr != 0 {
		d.Cfg.Balance.Threshold = *balThr
	}
	if *rank >= 0 {
		if *join == "" {
			log.Fatal("-rank needs -join (the rendezvous address)")
		}
		err := runDistributed(d, distFlags{
			rank: *rank, ranks: *ranks, join: *join, listen: *listen,
			heartbeat: *heartbeat, peerTimeout: *peerTO,
			steps: *steps, every: *every,
			out: *out, stateCRC: *stateCRC, commJSON: *commJSON,
		})
		if err != nil {
			log.Fatal(err)
		}
		return
	}
	sim, err := d.New()
	if err != nil {
		log.Fatal(err)
	}
	if *restore != "" {
		f, err := os.Open(*restore)
		if err != nil {
			log.Fatal(err)
		}
		var note string
		sim, note, err = sim.Resume(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		if note != "" {
			fmt.Printf("checkpoint layout differs: %s\n", note)
		}
		fmt.Printf("restored at step %d (t = %.3f)\n", sim.StepCount(), sim.Time())
	}

	fmt.Printf("deck %q: %d cells, %d particles, %d ranks × %d workers, %s kernel, dt = %.4g\n",
		d.Name, d.Cfg.NX*d.Cfg.NY*d.Cfg.NZ, sim.TotalParticles(), d.Cfg.NRanks, sim.Cfg.Workers, sim.Cfg.Kernel, d.Cfg.DT)

	var hist diag.History
	hist.Add(sim.Energy())
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}
	wallStart := time.Now()
	for s := 0; s < *steps; s++ {
		sim.Step()
		if (s+1)%*every == 0 {
			hist.Add(sim.Energy())
		}
	}
	wall := time.Since(wallStart)
	if *cpuProf != "" {
		fmt.Printf("cpu profile covers the %d-step loop: %s\n", *steps, *cpuProf)
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC() // report live steady-state allocations, not garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("wrote %s\n", *memProf)
	}
	last := hist.Samples[len(hist.Samples)-1]
	fmt.Printf("t = %.3f  field E = %.4g  field B = %.4g  kinetic = %.4g  total = %.4g\n",
		last.Time, last.EField, last.BField, sum(last.Kinetic), last.Total)
	fmt.Printf("relative energy drift: %.3g\n", hist.RelativeDrift())
	reps := sim.Reports()
	tot := core.SumReports(reps)
	printReport(reps)
	if d.Cfg.Balance.Mode != balance.Off {
		fmt.Printf("balance %s: x-cuts %v\n", d.Cfg.Balance.Mode, sim.CutsX())
	}
	if *stateCRC != "" {
		if err := writeStateCRCFile(*stateCRC, d.Name, sim.StepCount(), d.Cfg.NRanks, sim.StateCRCs()); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *stateCRC)
	}
	if *commJSON != "" {
		if err := writeCommJSON(*commJSON, reps, sim.StateCRCs()); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *commJSON)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		rows := make([][]float64, len(hist.Samples))
		for i, smp := range hist.Samples {
			rows[i] = []float64{float64(smp.Step), smp.Time, smp.EField, smp.BField, sum(smp.Kinetic), smp.Total}
		}
		if err := diag.WriteCSV(f, []string{"step", "time", "efield", "bfield", "kinetic", "total"}, rows); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("wrote %s\n", *out)
	}
	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			log.Fatal(err)
		}
		rk := sim.Ranks[0]
		g := rk.D.G
		sx, sy, sz := g.Strides()
		snaps := []output.Snapshot{
			{Name: "ex", NX: sx, NY: sy, NZ: sz, Data: rk.D.F.Ex},
			{Name: "ey", NX: sx, NY: sy, NZ: sz, Data: rk.D.F.Ey},
			{Name: "ez", NX: sx, NY: sy, NZ: sz, Data: rk.D.F.Ez},
			{Name: "cbx", NX: sx, NY: sy, NZ: sz, Data: rk.D.F.Bx},
			{Name: "cby", NX: sx, NY: sy, NZ: sz, Data: rk.D.F.By},
			{Name: "cbz", NX: sx, NY: sy, NZ: sz, Data: rk.D.F.Bz},
		}
		if err := output.WriteSnapshots(f, snaps); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("wrote %s (rank 0 fields)\n", *dump)
	}
	if *summary != "" {
		f, err := os.Create(*summary)
		if err != nil {
			log.Fatal(err)
		}
		err = output.WriteSummary(f, output.Summary{
			Deck:      d.Name,
			Steps:     sim.StepCount(),
			Time:      sim.Time(),
			Particles: tot.Particles,
			Ranks:     d.Cfg.NRanks,
			WallClock: wall.Seconds(),
			Rates: map[string]float64{
				"Mpart_per_s": perf.Rate(tot.Pushed, wall) / 1e6,
				"Gflop_per_s": float64(tot.Flops) / wall.Seconds() / 1e9,
			},
			Energy: map[string]float64{
				"total": last.Total, "field": last.EField + last.BField,
				"absorbed": sim.LostEnergy(),
			},
			Notes: d.Notes,
		})
		if err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("wrote %s\n", *summary)
	}
	if *ckpt != "" {
		// Atomic (temp + fsync + rename): a crash mid-write can never
		// corrupt a previous checkpoint at the same path.
		if err := output.WriteFileAtomic(*ckpt, sim.Checkpoint); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("checkpoint written to %s\n", *ckpt)
	}
}

func buildDeck(name string, nx, ppc, ranks int, a0 float64) (deck.Deck, error) {
	switch name {
	case "thermal":
		return deck.Thermal(nx, 4, 4, ppc, ranks, 0.2, 0.05), nil
	case "spike":
		return deck.Spike(nx, 8, 8, ppc, ranks, 0.2, 0.05), nil
	case "oscillation":
		return deck.PlasmaOscillation(nx, ppc, 0.25), nil
	case "twostream":
		return deck.TwoStream(nx, ppc, 0.2, 0.1), nil
	case "weibel":
		return deck.Weibel(nx, ppc, 0.2, 0.1, 0.01), nil
	case "landau":
		return deck.Landau(nx, ppc, 2, 0.2, 0.04, 0.005), nil
	case "lpi":
		p := deck.DefaultLPI(a0)
		p.NRanks = ranks
		p.PPC = ppc
		return deck.LPI(p)
	default:
		return deck.Deck{}, fmt.Errorf("unknown deck %q", name)
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
