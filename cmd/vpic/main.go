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
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"govpic/internal/deck"
	"govpic/internal/dist"
	"govpic/internal/transport"
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
		peerTO     = flag.Duration("peer-timeout", 0, "transport failure-detection timeout: a link silent or stalled this long is a dead peer, and the heartbeat derives from it (0 = default 2s)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments %q (every input is a flag)", flag.Args())
	}

	// The profiles are of this process: a distributed run refuses them,
	// naming each, instead of dropping them.
	var refused []string
	for _, p := range [][2]string{{"-cpuprofile", *cpuProf}, {"-memprofile", *memProf}} {
		if p[1] != "" && (*localRanks > 1 || *rank >= 0) {
			refused = append(refused, p[0])
		}
	}
	if len(refused) > 0 {
		log.Fatalf("%s: not supported by a distributed run (-rank, -local-ranks)", strings.Join(refused, ", "))
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

	// Every world runs the one member driver, dist.Member: this
	// process's rank of a TCP world, or every rank of an in-process one.
	job := dist.Job{Steps: *steps, Every: *every, Restore: *restore, Checkpoint: *ckpt}
	logf := func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	var res *dist.Result
	if *rank >= 0 {
		if *join == "" {
			log.Fatal("-rank needs -join (the rendezvous address)")
		}
		res, err = dist.Run(d, job, dist.Config{
			Rank: *rank, Ranks: *ranks, Join: *join, Listen: *listen,
			Transport: transport.Options{PeerTimeout: *peerTO},
		}, logf)
	} else {
		job.Around = profiled(*cpuProf, *memProf, *steps)
		res, err = dist.Local(d, job, logf)
	}
	if err != nil {
		log.Fatal(err)
	}
	if res.Rank != 0 {
		return
	}
	if err := report(d, res, *stateCRC, *commJSON, *out); err != nil {
		log.Fatal(err)
	}
}

// profiled returns the step-loop wrapper that writes a CPU profile of
// the loop and a heap profile of the live state after the last step,
// or nil when neither is asked for.
func profiled(cpu, mem string, steps int) func(loop func()) {
	if cpu == "" && mem == "" {
		return nil
	}
	create := func(path string, fn func(io.Writer) error) *os.File {
		f, err := os.Create(path)
		if err == nil {
			err = fn(f)
		}
		if err != nil {
			log.Fatal(err)
		}
		return f
	}
	return func(loop func()) {
		if cpu != "" {
			f := create(cpu, pprof.StartCPUProfile)
			defer func() {
				pprof.StopCPUProfile()
				f.Close()
				fmt.Printf("cpu profile covers the %d-step loop: %s\n", steps, cpu)
			}()
		}
		loop()
		if mem != "" {
			runtime.GC() // report live steady-state allocations, not garbage
			create(mem, pprof.WriteHeapProfile).Close()
			fmt.Printf("wrote %s\n", mem)
		}
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
