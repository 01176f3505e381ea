package core

import (
	"reflect"
	"runtime"
	"testing"

	"govpic/internal/diag"
	"govpic/internal/loader"
	"govpic/internal/mp"
	"govpic/internal/push"
)

// thermalBox is a uniform periodic 3-D thermal plasma (the shape of
// deck.Thermal, rebuilt here because the deck package depends on core).
func thermalBox(nx, ny, nz, ppc, nRanks int) Config {
	return Config{
		NX: nx, NY: ny, NZ: nz,
		DX: 0.5, DY: 0.5, DZ: 0.5,
		DT:         0.2,
		NRanks:     nRanks,
		Workers:    1,
		ParticleBC: [6]push.Action{push.Wrap, push.Wrap, push.Wrap, push.Wrap, push.Wrap, push.Wrap},
		Species: []SpeciesConfig{{
			Name: "electron", Q: -1, M: 1, SortInterval: 20,
			Load: &loader.Params{
				Profile: loader.Uniform(0.2), PPC: ppc, Nref: 0.2,
				Uth: [3]float64{0.05, 0.05, 0.05}, Seed: 20080415,
			},
		}},
		NeutralizingBackground: true,
	}
}

// TestCollectSameOnEveryMember: the observables a Simulation forwards
// are the members' collectives, so every member of a 4-rank (2×2×1)
// world must compute the same value — and Collect must hand back member
// 0's. Run under -race this is also the proof that Collect's fan-out
// shares nothing but the communicator. The per-rank reports, which need
// no collective, must add up to the collective particle count.
func TestCollectSameOnEveryMember(t *testing.T) {
	s, err := New(thermalBox(8, 8, 4, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(6)

	type seen struct {
		energy    diag.EnergySample
		particles int
		digest    uint64
	}
	all := make([]seen, len(s.Ranks))
	first := Collect(s, func(rs *RankSim) seen {
		v := seen{rs.Energy(), rs.TotalParticles(), rs.CanonicalDigest()}
		all[rs.Comm().Rank()] = v
		return v
	})
	for r, v := range all {
		if !reflect.DeepEqual(v, first) {
			t.Errorf("member %d computed %+v, member 0 %+v", r, v, first)
		}
	}
	want := seen{s.Energy(), s.TotalParticles(), s.CanonicalDigest()}
	if !reflect.DeepEqual(first, want) {
		t.Errorf("Collect returned %+v, the Simulation's forwards say %+v", first, want)
	}
	total := 0
	for _, r := range s.Reports() {
		total += r.Particles
	}
	if total != first.particles || total != 8*8*4*8 || first.energy.Step != 6 || first.energy.Total <= 0 {
		t.Errorf("degenerate observables: %+v, reports sum to %d particles", first, total)
	}
}

// TestSimulationStepAllocs guards the lockstep driver's fixed per-step
// cost on the latency-bound shape (cmd/bench's exchange.2rank: 4096
// particles on 2 ranks): one goroutine per rank per step over a
// WaitGroup that lives in the Simulation. The bound is what this test
// measures on the tree that set it (181 per step; the one-schedule
// exchange step had taken it from the two-driver parent's 188 to 183),
// so any new per-step allocation — a WaitGroup declared per step, a
// closure per member, a second fan-out for the balance check, a
// partition candidate list that is not reused — fails it.
func TestSimulationStepAllocs(t *testing.T) {
	s, err := New(thermalBox(32, 4, 4, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(40) // past the first sorts and buffer growth
	const maxAllocs = 181
	if got := testing.AllocsPerRun(200, s.Step); got > maxAllocs {
		t.Errorf("Simulation.Step allocates %.0f objects per step, the bound %d", got, maxAllocs)
	}
}

// TestMemberStepAllocs is the allocation ratchet on the loop every
// production driver runs (dist.Member): free-running members on an
// mp.Run world, each stepping its own RankSim, on TestSimulationStepAllocs'
// shape. It counts heap objects (runtime.MemStats.Mallocs) per world
// step — every member's allocations, the world's goroutines and links
// included. The bounds are what this test measures on the tree that set
// them (21.0–21.03 on 1 rank, 177.2–177.4 on 2, before flooring), so a
// new per-step allocation in the step, its exchanges or the balance
// check fails it.
func TestMemberStepAllocs(t *testing.T) {
	for _, tc := range []struct {
		ranks     int
		maxAllocs uint64
	}{{1, 21}, {2, 178}} {
		const warm, steps = 40, 200 // warm: past the first sorts and buffer growth
		var before, after runtime.MemStats
		mp.Run(tc.ranks, func(c *mp.Comm) {
			rs, err := NewRankSim(thermalBox(32, 4, 4, 8, tc.ranks), c)
			if err != nil {
				t.Error(err) // the config is every member's, so every member fails here
				return
			}
			rs.Run(warm)
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			c.Barrier()
			rs.Run(steps)
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&after)
			}
		})
		// Floored, as testing.AllocsPerRun does: the runtime's own few
		// objects over the window must not tip a bound.
		got := (after.Mallocs - before.Mallocs) / steps
		if got > tc.maxAllocs {
			t.Errorf("%d ranks: members allocate %d objects per world step, the bound %d", tc.ranks, got, tc.maxAllocs)
		}
	}
}

// The lockstep world's read-outs that only this package's tests use;
// other packages reach the members through Collect.

// Time returns the current simulation time.
func (s *Simulation) Time() float64 { return s.sims[0].time }

// History returns the samples the members took (member 0's History).
func (s *Simulation) History() diag.History { return s.sims[0].History }

// TotalParticles returns the global particle count.
func (s *Simulation) TotalParticles() int { return Collect(s, (*RankSim).TotalParticles) }

// CutsX returns the current x-plane cuts (a copy).
func (s *Simulation) CutsX() []int { return s.sims[0].CutsX() }

// CanonicalDigest returns the world's geometry-canonical state digest.
func (s *Simulation) CanonicalDigest() uint64 { return Collect(s, (*RankSim).CanonicalDigest) }

// Reports returns every member's cumulative report in rank order.
func (s *Simulation) Reports() []RankReport {
	out := make([]RankReport, len(s.sims))
	for i, rs := range s.sims {
		out[i] = rs.Report()
	}
	return out
}
