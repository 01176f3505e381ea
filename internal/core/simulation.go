package core

import (
	"sync"
	"sync/atomic"

	"govpic/internal/diag"
	"govpic/internal/mp"
	"govpic/internal/wait"
)

// Simulation is an in-process world of RankSims advanced in lockstep:
// one member per rank over World.Comm(r), with Ranks[r] the member's
// tile. Between Step calls all rank state is quiescent and may be read
// by diagnostics; every global observable is computed by the members
// through their collectives (Collect), never by the Simulation itself.
type Simulation struct {
	Cfg   Config
	World *mp.World
	Ranks []*Rank

	sims []*RankSim

	// The lockstep fan-out (each): member 0 runs on the caller, member
	// r > 0 on members[r]'s goroutine, which outlives the call (below).
	members []member
	done    chan struct{} // the members' ends; capacity NRanks, so none blocks
}

// A member is the goroutine of one member r > 0 of a Simulation's
// fan-out. It yields through wait.Until for its next start, so
// back-to-back steps start no goroutine and wake no parked thread, and
// exits after, so a Simulation needs no Close. fn and rs are written
// before the start is sent and cleared before the end is: an idle
// goroutine holds no RankSim, so a dropped Simulation is collected.
type member struct {
	start chan struct{} // capacity 1
	done  chan struct{} // the Simulation's
	live  atomic.Bool   // the goroutine exists
	fn    func(*RankSim)
	rs    *RankSim
}

// New builds and initializes a simulation: every member is a
// NewRankSim on its Comm of a fresh in-process world.
func New(cfg Config) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s, errs := newWorld(cfg, func(c *mp.Comm) (*RankSim, error) { return NewRankSim(cfg, c) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// newWorld returns a fresh in-process world of cfg.NRanks members, each
// built by build on its Comm, concurrently as the members of any other
// world are, and each member's error.
func newWorld(cfg Config, build func(*mp.Comm) (*RankSim, error)) (*Simulation, []error) {
	n := cfg.NRanks
	world := mp.NewWorld(n)
	s := &Simulation{Cfg: cfg, World: world, Ranks: make([]*Rank, n), sims: make([]*RankSim, n),
		members: make([]member, n), done: make(chan struct{}, n)}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for r := range s.sims {
		s.members[r].start, s.members[r].done = make(chan struct{}, 1), s.done
		go func() {
			defer wg.Done()
			s.sims[r], errs[r] = build(world.Comm(r))
		}()
	}
	wg.Wait()
	for r, rs := range s.sims {
		if rs != nil {
			s.Ranks[r] = rs.Rank
		}
	}
	return s, errs
}

// each runs fn concurrently on every member and waits; fn may use the
// member's Comm (collectives included). Member 0 runs on the caller, so
// its panic reaches the caller; another member's ends the process.
func (s *Simulation) each(fn func(rs *RankSim)) {
	for r := 1; r < len(s.sims); r++ {
		m := &s.members[r]
		m.fn, m.rs = fn, s.sims[r]
		m.start <- struct{}{}
		if m.live.CompareAndSwap(false, true) {
			go m.run()
		}
	}
	fn(s.sims[0])
	wait.Until(func() bool { return len(s.done) >= len(s.sims)-1 })
	for r := 1; r < len(s.sims); r++ {
		<-s.done
	}
}

// run runs m's starts until none arrives within a wait.Window.
func (m *member) run() {
	for {
		<-m.start
		m.fn(m.rs)
		m.fn, m.rs = nil, nil
		m.done <- struct{}{}
		if !wait.Until(func() bool { return len(m.start) > 0 }) {
			// A start sent after the last look is this goroutine's only
			// if it sets live again before each starts a successor.
			m.live.Store(false)
			if len(m.start) == 0 || !m.live.CompareAndSwap(false, true) {
				return
			}
		}
	}
}

// Collect runs fn concurrently on every member of the simulation and
// returns member 0's answer. It is how a caller holding a Simulation
// reaches anything the members compute collectively: fn may call the
// RankSim's collectives, which hand every member the same value.
func Collect[T any](s *Simulation, fn func(*RankSim) T) T {
	var out T
	s.each(func(rs *RankSim) {
		if v := fn(rs); rs.comm.Rank() == 0 {
			out = v
		}
	})
	return out
}

// Step advances the whole simulation by one time step: every member
// takes its own RankSim.Step, synchronizing through the exchanges.
func (s *Simulation) Step() { s.each((*RankSim).Step) }

// Run advances n steps.
func (s *Simulation) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// StepCount returns the number of completed steps.
func (s *Simulation) StepCount() int { return s.sims[0].step }

// --- Global diagnostics (call between steps only) ---
//
// The observables below are the members' collectives, reached through
// Collect; see the RankSim methods for what each one computes.

// Energy gathers the global energy sample.
func (s *Simulation) Energy() diag.EnergySample { return Collect(s, (*RankSim).Energy) }

// LostEnergy returns the kinetic energy absorbed at boundaries so far.
func (s *Simulation) LostEnergy() float64 { return Collect(s, (*RankSim).LostEnergy) }
