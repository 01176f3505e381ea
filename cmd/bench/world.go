package main

import (
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"govpic/internal/core"
	"govpic/internal/deck"
	"govpic/internal/domain"
	"govpic/internal/mp"
	"govpic/internal/perf"
	"govpic/internal/transport"
)

// world is a built simulation: every rank of it lives in this process,
// whether the ranks talk over channels (core.Simulation) or over
// loopback TCP (one core.RankSim each).
type world struct {
	cfg   core.Config // validated: Workers and Kernel resolved
	ranks []*core.Rank
	// step advances every rank one time step; a rank that panicked (a
	// typed comm error) is reported instead of killing the run.
	step      func() error
	stepCount func() int
	close     func()
	// sim is the in-process driver, nil for a TCP world.
	sim *core.Simulation
}

// buildWorld constructs the workload's world from its generated deck.
func buildWorld(w *workload, d deck.Deck) (*world, error) {
	if w.Kind == kindTCP {
		return buildTCP(d)
	}
	return buildSim(d)
}

func buildSim(d deck.Deck) (*world, error) {
	sim, err := d.New()
	if err != nil {
		return nil, err
	}
	return &world{
		cfg: sim.Cfg, ranks: sim.Ranks, sim: sim,
		step:      func() error { sim.Step(); return nil },
		stepCount: sim.StepCount,
		close:     func() {},
	}, nil
}

// onRanks runs fn once per rank concurrently, as Simulation.Step does
// for its ranks, and returns the first panic as an error.
func onRanks(n int, fn func(r int)) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for r := 0; r < n; r++ {
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("rank %d: %v", r, p)
				}
			}()
			fn(r)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// freeLocalAddr reserves a loopback port by binding and releasing it.
func freeLocalAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// connectTCP brings up an n-rank loopback mesh with the transport's
// default options (the production configuration).
func connectTCP(n int) ([]*transport.TCP, error) {
	join, err := freeLocalAddr()
	if err != nil {
		return nil, err
	}
	ts := make([]*transport.TCP, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ts[r], errs[r] = transport.Connect(r, n, join, "127.0.0.1:0", transport.Options{})
		}(r)
		if r == 0 {
			// A joiner that dials before rank 0 listens backs off 100 ms,
			// which would make set-up time bimodal; give rank 0 a head start.
			time.Sleep(2 * time.Millisecond)
		}
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			closeTCP(ts)
			return nil, fmt.Errorf("rank %d connect: %w", r, err)
		}
	}
	return ts, nil
}

func closeTCP(ts []*transport.TCP) {
	for _, t := range ts {
		if t != nil {
			t.Close()
		}
	}
}

func buildTCP(d deck.Deck) (*world, error) {
	n := d.Cfg.NRanks
	ts, err := connectTCP(n)
	if err != nil {
		return nil, err
	}
	rs := make([]*core.RankSim, n)
	errs := make([]error, n+1)
	errs[n] = onRanks(n, func(r int) {
		rs[r], errs[r] = core.NewRankSim(d.Cfg, mp.NewComm(ts[r]))
	})
	for _, err := range errs {
		if err != nil {
			closeTCP(ts)
			return nil, err
		}
	}
	w := &world{
		cfg:       rs[0].Cfg,
		step:      func() error { return onRanks(n, func(r int) { rs[r].Step() }) },
		stepCount: rs[0].StepCount,
		close:     func() { closeTCP(ts) },
	}
	for _, r := range rs {
		w.ranks = append(w.ranks, r.Rank)
	}
	return w, nil
}

// toSortDue advances a sorted deck to the end of a sort interval: the
// next step would sort, so the buffers hold a whole interval's disorder.
func (w *world) toSortDue() error {
	iv := w.cfg.Species[0].SortInterval
	if iv < 2 {
		return nil
	}
	for w.stepCount()%iv != 0 {
		if err := w.step(); err != nil {
			return err
		}
	}
	return nil
}

// counters is a snapshot of what the layers already count; two of them
// bracket the timed loop.
type counters struct {
	pushed, moved, flops, pushBytes int64
	msgs, bytes                     [domain.NumCommClasses]int64
	pushSec                         float64 // rank 0's perf.Push clock
	commWait                        time.Duration
}

func (w *world) counters() counters {
	var c counters
	for _, rk := range w.ranks {
		for _, k := range rk.Kernels {
			c.pushed += k.NPushed
			c.moved += k.NMoved
			c.flops += k.Flops()
		}
		c.pushBytes += rk.Perf.BytesMoved(perf.Push)
		for i := range c.msgs {
			c.msgs[i] += rk.D.ClassMsgs[i]
			c.bytes[i] += rk.D.ClassBytes[i]
		}
		c.commWait += rk.Perf.CommWait()
	}
	c.pushSec = w.ranks[0].Perf.Elapsed(perf.Push).Seconds()
	return c
}

func (w *world) particles() int {
	n := 0
	for _, rk := range w.ranks {
		for _, sp := range rk.Species {
			n += sp.Buf.N()
		}
	}
	return n
}

// energy returns the total (field + kinetic) energy and the kinetic
// energy absorbed at walls so far.
func (w *world) energy() (total, lost float64) {
	for _, rk := range w.ranks {
		total += rk.D.F.EnergyE() + rk.D.F.EnergyB()
		for i, sp := range rk.Species {
			total += sp.KineticEnergy()
			lost += rk.Kernels[i].ELost
		}
	}
	return total, lost
}

func allFinite(a []float32) bool {
	for _, v := range a {
		if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// finite reports whether every field value and particle momentum is a
// finite number.
func (w *world) finite() bool {
	for _, rk := range w.ranks {
		f := rk.D.F
		for _, a := range [][]float32{f.Ex, f.Ey, f.Ez, f.Bx, f.By, f.Bz} {
			if !allFinite(a) {
				return false
			}
		}
		for _, sp := range rk.Species {
			for i, n := 0, sp.Buf.N(); i < n; i++ {
				p := sp.Buf.At(i)
				if !allFinite([]float32{p.Ux, p.Uy, p.Uz}) {
					return false
				}
			}
		}
	}
	return true
}

func (w *world) crcs() []uint32 {
	out := make([]uint32, len(w.ranks))
	for r, rk := range w.ranks {
		out[r] = rk.StateCRC()
	}
	return out
}
