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

	"govpic/internal/balance"
	"govpic/internal/deck"
	"govpic/internal/diag"
	"govpic/internal/output"
)

func main() {
	var (
		name    = flag.String("deck", "thermal", "deck: thermal | spike | oscillation | twostream | weibel | landau | lpi | tnsa")
		steps   = flag.Int("steps", 500, "number of time steps")
		every   = flag.Int("every", 10, "energy sample interval (steps)")
		ranks   = flag.Int("ranks", 1, "domain-decomposed rank count")
		workers = flag.Int("workers", 0, "pipeline workers per rank (0 = CPUs/rank, capped at 8)")
		kernel  = flag.String("kernel", "", "push kernel's block routine: asm | go | auto (default auto; bit-identical either way)")
		ppc     = flag.Int("ppc", 64, "particles per cell")
		nx      = flag.Int("nx", 64, "cells along x (decks other than lpi and tnsa)")
		a0      = flag.Float64("a0", 0.02, "laser strength (lpi and tnsa decks)")
		out     = flag.String("out", "", "energy history CSV path (default stdout summary only)")
		ckpt    = flag.String("checkpoint", "", "write a checkpoint here at the end")
		restore = flag.String("restore", "", "restore state from this checkpoint before running")
		config  = flag.String("config", "", "JSON deck config (replaces -deck, -steps, -nx, -ppc, -ranks and -a0)")
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
		for _, name := range []string{"restore", "checkpoint", "cpuprofile", "memprofile"} {
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

	// The deck flags and a -config file fill one deck.JSONConfig, whose
	// Build makes the deck: a file replaces the deck flags, and the
	// speed and balance flags override either when given.
	spec := deck.JSONConfig{Deck: *name, Steps: *steps, Ranks: *ranks, PPC: *ppc, NX: *nx, A0: *a0}
	if *config != "" {
		f, err := os.Open(*config)
		if err != nil {
			log.Fatal(err)
		}
		spec, err = deck.FromJSON(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		*steps = spec.Steps
	}
	if *workers != 0 {
		spec.Workers = *workers
	}
	if *kernel != "" {
		spec.Kernel = *kernel
	}
	if *balMode != "" {
		spec.Balance = *balMode
	}
	if *balInt != 0 {
		spec.BalanceInterval = *balInt
	}
	if *balThr != 0 {
		spec.BalanceThreshold = *balThr
	}
	d, err := spec.Build()
	if err != nil {
		log.Fatal(err)
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
		err = sim.Restore(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("restored at step %d (t = %.3f), x-cuts %v\n", sim.StepCount(), sim.Time(), sim.CutsX())
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
	for s := 0; s < *steps; s++ {
		sim.Step()
		if (s+1)%*every == 0 {
			hist.Add(sim.Energy())
		}
	}
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
		if err := writeEnergyCSV(*out, &hist); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
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

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
