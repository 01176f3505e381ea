package core

import (
	"io"

	"govpic/internal/balance"
	"govpic/internal/diag"
	"govpic/internal/mp"
)

// RankSim is the driver: one rank's member of a world, owning that
// rank's tile, its step and time counters, the run's energy history,
// and every global observable (as a collective over the Comm). The
// world's transport decides where the peers live — transport.Connect's
// TCP mesh for one process per rank, or the in-process mp.World that
// Simulation steps in lockstep — and because the rank-ordered
// collectives are the same on both, a world produces bit-identical
// state and observables either way.
type RankSim struct {
	Cfg  Config
	Rank *Rank
	// History holds the samples Sample took, from step 0 on: a restore
	// or resume takes the checkpoint's, and Checkpoint writes it.
	History diag.History

	comm *mp.Comm
	step int
	time float64
}

// NewRankSim builds this rank's tile of a cfg.NRanks-rank world on the
// given communicator, loads it and runs the communicating
// initialization phases in lockstep with the peers (every rank of the
// world must call NewRankSim concurrently).
func NewRankSim(cfg Config, comm *mp.Comm) (*RankSim, error) {
	dcfg, err := domainConfig(&cfg, comm)
	if err != nil {
		return nil, err
	}
	rk, err := newRank(&cfg, dcfg, comm)
	if err != nil {
		return nil, err
	}
	if err := rk.load(&cfg); err != nil {
		return nil, err
	}
	rk.initDecomposed(&cfg)
	return &RankSim{Cfg: cfg, Rank: rk, comm: comm}, nil
}

// ResumeRankSim builds this rank's member of cfg's world from the
// checkpoint r holds — a collective every rank of the world calls
// concurrently; rank 0 alone touches r (receiveCheckpoint). The tile is
// built on the file's layout with empty species, setup (when set)
// finishes it, and only then does the member read its payload and prime
// its ghosts: it never loads or deposits what the file replaces. A
// rejected file fails every member with rank 0's error.
func ResumeRankSim(cfg Config, comm *mp.Comm, r io.Reader, setup func(*Rank) error) (*RankSim, error) {
	dcfg, err := domainConfig(&cfg, comm)
	if err != nil {
		return nil, err
	}
	hd, payload, err := receiveCheckpoint(comm, r, &cfg, dcfg.Layout, false)
	if err != nil {
		return nil, err
	}
	dcfg.Layout = hd.layout
	rk, err := newRank(&cfg, dcfg, comm)
	if err != nil {
		return nil, err
	}
	if setup != nil {
		if err := setup(rk); err != nil {
			return nil, err
		}
	}
	rs := &RankSim{Cfg: cfg, Rank: rk, comm: comm}
	rs.read(hd, payload)
	return rs, nil
}

// Comm returns the rank's communicator.
func (rs *RankSim) Comm() *mp.Comm { return rs.comm }

// Step advances this rank one time step, synchronizing with peers
// through the domain exchanges, then runs the online balance check
// (a collective every member reaches at the same step) when it is due.
func (rs *RankSim) Step() {
	doClean := rs.Cfg.CleanInterval > 0 && rs.step > 0 && rs.step%rs.Cfg.CleanInterval == 0
	rs.Rank.stepOnce(&rs.Cfg, rs.time, rs.step, doClean)
	rs.step++
	rs.time += rs.Cfg.DT
	if rs.Cfg.Balance.Mode == balance.Online && rs.step%rs.Cfg.Balance.Interval == 0 {
		rs.Rank.maybeReshapeX(&rs.Cfg)
	}
}

// Run advances n steps.
func (rs *RankSim) Run(n int) {
	for i := 0; i < n; i++ {
		rs.Step()
	}
}

// StepCount returns the number of completed steps.
func (rs *RankSim) StepCount() int { return rs.step }

// Time returns the current simulation time.
func (rs *RankSim) Time() float64 { return rs.time }

// StateCRC fingerprints this rank's dynamic state (see Rank.StateCRC).
func (rs *RankSim) StateCRC() uint32 { return rs.Rank.StateCRC() }

// Energy gathers the global energy sample (field, per-species kinetic,
// total, max div-B error) — a collective; every rank must call it at
// the same step. The per-component sums reduce in rank order, so the
// sample is bit-identical however the world is hosted.
func (rs *RankSim) Energy() diag.EnergySample {
	rk := rs.Rank
	sample := diag.EnergySample{
		Step:    rs.step,
		Time:    rs.time,
		Kinetic: make([]float64, len(rs.Cfg.Species)),
	}
	sample.EField = rs.comm.AllreduceSum(rk.D.F.EnergyE())
	sample.BField = rs.comm.AllreduceSum(rk.D.F.EnergyB())
	for i, sp := range rk.Species {
		sample.Kinetic[i] = rs.comm.AllreduceSum(sp.KineticEnergy())
	}
	_, dbe := rk.D.F.DivB(rk.scratch)
	sample.DivBError = rs.comm.AllreduceMax(dbe)
	sample.Total = sample.EField + sample.BField
	for _, k := range sample.Kinetic {
		sample.Total += k
	}
	return sample
}

// Sample appends the global energy sample (Energy) to History and
// returns it — a collective.
func (rs *RankSim) Sample() diag.EnergySample {
	s := rs.Energy()
	rs.History.Samples = append(rs.History.Samples, s)
	return s
}

// particles returns this rank's resident particle count (all species).
func (rk *Rank) particles() int {
	n := 0
	for _, sp := range rk.Species {
		n += sp.Buf.N()
	}
	return n
}

// TotalParticles returns the global particle count — a collective.
func (rs *RankSim) TotalParticles() int {
	return int(rs.comm.AllreduceSumInt(int64(rs.Rank.particles())))
}

// LostEnergy returns the kinetic energy carried away by particles
// absorbed at boundaries since this member was built, summed over the
// world (a collective) — it closes the energy budget of bounded runs.
func (rs *RankSim) LostEnergy() float64 {
	var e float64
	for _, k := range rs.Rank.Kernels {
		e += k.ELost
	}
	return rs.comm.AllreduceSum(e)
}

// CutsX returns the current x-plane cuts (a copy).
func (rs *RankSim) CutsX() []int {
	return append([]int(nil), rs.Rank.D.Cfg.Layout.CX...)
}
