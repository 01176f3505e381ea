package core

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"govpic/internal/accum"
	"govpic/internal/diag"
	"govpic/internal/loader"
	"govpic/internal/mp"
	"govpic/internal/push"
	"govpic/internal/testnet"
	"govpic/internal/transport"
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
// particles on 2 ranks). The members' steps allocate nothing
// (TestMemberStepAllocs), and back-to-back steps reuse the member
// goroutines, so the bound is 0 (4 per step when each step started a
// goroutine per member, 181 before the persistent exchange plans): any
// new per-step allocation — a goroutine or closure per member, a
// second fan-out for the balance check — fails it.
func TestSimulationStepAllocs(t *testing.T) {
	s, err := New(thermalBox(32, 4, 4, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(40) // past the first sorts and buffer growth
	const maxAllocs = 0
	if got := testing.AllocsPerRun(200, s.Step); got > maxAllocs {
		t.Errorf("Simulation.Step allocates %.0f objects per step, the bound %d", got, maxAllocs)
	}
}

// TestSimulationMembersOutliveSteps: the member goroutines of a 4-rank
// Simulation exit once no start arrives within memberWindow (that they
// outlive back-to-back steps is TestSimulationStepAllocs' bound); the
// steps after that start them again, and the state ends bit-identical
// to a run whose members never exited.
func TestSimulationMembersOutliveSteps(t *testing.T) {
	cfg := thermalBox(8, 8, 4, 8, 4)
	want, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want.Run(6)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	alive := func() (n int) {
		for r := range s.members {
			if s.members[r].live.Load() {
				n++
			}
		}
		return n
	}
	for round := 0; round < 3; round++ {
		s.Run(2)
		for deadline := time.Now().Add(5 * time.Second); alive() > 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d member goroutines still live %v after the last step", round, alive(), 5*time.Second)
			}
		}
	}
	if got, w := s.StateCRCs(), want.StateCRCs(); !reflect.DeepEqual(got, w) {
		t.Errorf("state CRCs %08x after restarted members, %08x with live ones", got, w)
	}
}

// memberStepAllocs runs one RankSim per communicator of comms (a whole
// world, each member on its own goroutine) on TestSimulationStepAllocs'
// shape with workers pool workers per member and returns the heap
// objects allocated per world step (runtime.MemStats.Mallocs, every
// goroutine included) over steps steps after warm ones, floored as
// testing.AllocsPerRun does: the runtime's own few objects over the
// window must not tip a budget. With ckpt set, every member resumes from
// it (ResumeRankSim) instead of loading.
func memberStepAllocs(t *testing.T, comms []*mp.Comm, workers, warm, steps int, ckpt []byte) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	var wg sync.WaitGroup
	r := bytes.NewReader(ckpt)
	for _, c := range comms {
		wg.Add(1)
		go func(c *mp.Comm) {
			defer wg.Done()
			cfg := thermalBox(32, 4, 4, 8, len(comms))
			cfg.Workers = workers
			var rs *RankSim
			var err error
			if ckpt != nil {
				rs, err = ResumeRankSim(cfg, c, r, nil)
			} else {
				rs, err = NewRankSim(cfg, c)
			}
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
		}(c)
	}
	wg.Wait()
	return (after.Mallocs - before.Mallocs) / uint64(steps)
}

// TestMemberStepAllocs is the allocation budget of the loop every
// production driver runs (dist.Member): free-running members on an
// in-process world, each stepping its own RankSim. The persistent
// exchange plans, the pre-built pool tasks and the inline ExchangeJ
// make a steady-state step allocate nothing, on one rank and on two,
// with one pool worker and with two (whose helpers persist across
// regions and are bound once): the budget is 0 (it was a ratchet at 21
// and 178). TestExchangeAllocs and TestStepRegionAllocs name the
// exchange or pool region that broke it.
func TestMemberStepAllocs(t *testing.T) {
	for _, c := range []struct{ ranks, workers int }{{1, 1}, {2, 1}, {1, 2}, {2, 2}} {
		w := mp.NewWorld(c.ranks)
		comms := make([]*mp.Comm, c.ranks)
		for r := range comms {
			comms[r] = w.Comm(r)
		}
		if got := memberStepAllocs(t, comms, c.workers, 40, 200, nil); got != 0 {
			t.Errorf("%d ranks × %d workers: members allocate %d objects per world step, the budget 0", c.ranks, c.workers, got)
		}
	}
}

// TestResumedMemberStepAllocs is TestMemberStepAllocs on members resumed
// from a checkpoint of the same world at step 10: a resumed member sizes
// its kernels' outgoing buffers from the population it read, so its
// steady-state step allocates nothing either. Resumed from a file of
// step 0, which holds the loaded population, its buffers are the loaded
// member's size.
func TestResumedMemberStepAllocs(t *testing.T) {
	fresh := mustNew(t, thermalBox(32, 4, 4, 8, 2))
	resumed := mustResume(t, fresh.Cfg, checkpointBytes(t, fresh))
	for r, rk := range fresh.Ranks {
		for i, k := range rk.Kernels {
			for f, out := range k.Out {
				if got := cap(resumed.Ranks[r].Kernels[i].Out[f]); got != cap(out) {
					t.Fatalf("rank %d, species %d, face %d: resumed outgoing capacity %d, loaded %d", r, i, f, got, cap(out))
				}
			}
		}
	}
	for _, c := range []struct{ ranks, workers int }{{1, 1}, {2, 1}, {1, 2}, {2, 2}} {
		cfg := thermalBox(32, 4, 4, 8, c.ranks)
		cfg.Workers = c.workers
		s := mustNew(t, cfg)
		s.Run(10)
		ckpt := checkpointBytes(t, s)
		w := mp.NewWorld(c.ranks)
		comms := make([]*mp.Comm, c.ranks)
		for r := range comms {
			comms[r] = w.Comm(r)
		}
		if got := memberStepAllocs(t, comms, c.workers, 40, 200, ckpt); got != 0 {
			t.Errorf("%d ranks × %d workers: resumed members allocate %d objects per world step, the budget 0", c.ranks, c.workers, got)
		}
	}
}

// TestMemberStepAllocsTCP is the ratchet of the same loop on two
// members over loopback TCP. The transport allocates per message (Send
// encodes into a fresh frame and the reader decodes a fresh payload),
// so it is counted apart from the in-process budget. The bound is what
// this test measures on the tree that set it, 38 per step with and
// without -race, plus one object of slack (down from 40 before a step
// that splits one axis dropped its settle collective, 70 before the
// step filled one ghost side per exchange, and 302 before the
// persistent exchange plans).
func TestMemberStepAllocsTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP world")
	}
	const maxAllocs = 39
	join := testnet.FreeAddr(t)
	ts := make([]*transport.TCP, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := range ts {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ts[r], errs[r] = transport.Connect(r, 2, join, "127.0.0.1:0", transport.Options{})
		}(r)
	}
	wg.Wait()
	comms := make([]*mp.Comm, 2)
	for r := range ts {
		if errs[r] != nil {
			t.Fatal(errs[r])
		}
		defer ts[r].Close()
		comms[r] = mp.NewComm(ts[r])
	}
	if got := memberStepAllocs(t, comms, 1, 40, 200, nil); got > maxAllocs {
		t.Errorf("2 TCP ranks: members allocate %d objects per world step, the bound %d", got, maxAllocs)
	}
}

// TestStepRegionAllocs is the allocation budget of every pool region
// the step runs, one subtest each, on a one-worker pool (<region>) and
// on a two-worker one (<region>_W2): each region's task is bound once
// and the pool's helpers persist across regions, so a call allocates
// nothing.
func TestStepRegionAllocs(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cfg := thermalBox(32, 4, 4, 8, 1)
		cfg.Workers = workers
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(3)
		rk := s.sims[0].Rank
		f, dt := rk.D.F, s.sims[0].Cfg.DT
		for _, r := range []struct {
			name string
			run  func()
		}{
			{"push", func() { rk.pushRanges(false) }},
			{"reduce", func() { accum.Reduce(rk.pool, rk.Acc, rk.pipeAcc) }},
			{"unload", func() { rk.Acc.UnloadPar(rk.pool, f, dt) }},
			{"advanceB", func() { f.AdvanceBPar(rk.pool, dt, 0.5) }},
			{"advanceE", func() { f.AdvanceEPar(rk.pool, dt) }},
			{"load", func() { rk.IP.LoadPar(rk.pool, f) }},
			{"sort", func() { rk.sortWS.ByVoxel(rk.Species[0].Buf, rk.D.G.NV()) }},
		} {
			name := r.name
			if workers > 1 {
				name += "_W2"
			}
			t.Run(name, func(t *testing.T) {
				if got := testing.AllocsPerRun(50, r.run); got != 0 {
					t.Errorf("the %s region at W = %d allocates %.2f objects per call, the budget 0", r.name, workers, got)
				}
			})
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
