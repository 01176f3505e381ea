package core

import (
	"sync"

	"govpic/internal/diag"
	"govpic/internal/mp"
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

	wg sync.WaitGroup
}

// New builds and initializes a simulation: every member is a
// NewRankSim on its Comm of a fresh in-process world, built
// concurrently as the members of any other world are.
func New(cfg Config) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	world := mp.NewWorld(cfg.NRanks)
	s := &Simulation{Cfg: cfg, World: world,
		Ranks: make([]*Rank, cfg.NRanks), sims: make([]*RankSim, cfg.NRanks)}
	errs := make([]error, cfg.NRanks)
	s.wg.Add(cfg.NRanks)
	for r := range s.sims {
		go func() {
			defer s.wg.Done()
			s.sims[r], errs[r] = NewRankSim(cfg, world.Comm(r))
		}()
	}
	s.wg.Wait()
	for r, rs := range s.sims {
		if errs[r] != nil {
			return nil, errs[r]
		}
		s.Ranks[r] = rs.Rank
	}
	return s, nil
}

// each runs fn concurrently on every member and waits; fn may use the
// member's Comm (collectives included).
func (s *Simulation) each(fn func(rs *RankSim)) {
	s.wg.Add(len(s.sims))
	for _, rs := range s.sims {
		go func(rs *RankSim) {
			defer s.wg.Done()
			fn(rs)
		}(rs)
	}
	s.wg.Wait()
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
