package core

import (
	"time"

	"govpic/internal/accum"
	"govpic/internal/domain"
	"govpic/internal/particle"
	"govpic/internal/perf"
	"govpic/internal/pipe"
	"govpic/internal/push"
	psort "govpic/internal/sort"
)

// stepOnce is one rank's whole time step; all cross-rank interactions go
// through the domain exchanges, which synchronize the ranks pairwise.
func (rk *Rank) stepOnce(cfg *Config, tNow float64, step int, doClean bool) {
	d := rk.D
	f := d.F

	// Periodic particle sort (VPIC: keeps the gather/scatter streaming).
	rk.Perf.Start(perf.Sort)
	var sortBytes int64
	for i, sp := range rk.Species {
		if sp.ShouldSort(step) {
			rk.sortWS.ByVoxel(sp.Buf, d.G.NV())
			sortBytes += psort.TrafficBytes(sp.Buf.N())
			rk.part[i].stale = true
		}
	}
	rk.Perf.AddBytes(perf.Sort, sortBytes)
	rk.switchPar(perf.Sort, perf.Push)

	// Particle advance and current deposition (the inner loop),
	// boundary first: partition each species in place so the shell
	// particles form the tail, push the tail, post the particle exchange
	// (only shell particles can migrate under the CFL bound, so the
	// outgoing lists are final), then push the interior while the migrants
	// fly. A rank with no remote face has an empty shell: the interior is
	// the whole buffer, cut as an unsplit sweep would be, and the exchange
	// posts nothing. The partition is a function of the buffer and the
	// phase order is fixed, so results match for any worker count.
	//
	// The partition remembers: after one full scan only the slots the
	// last step's movers and arrivals wrote can be misplaced, so each
	// push phase collects its mover slots whose class changed, the
	// interior phase records where arrivals start, and the next step
	// swaps within those slots and the band between the old and the new
	// cut — exactly the full scan's swaps, so the buffer is byte-identical
	// to it (partState). A sort, load, restore or reshape marks the
	// species stale and the full scan runs instead.
	//
	// The pipeline accumulators are zero here: the previous step's
	// Reduce (or accum.New) left them so.
	for i, sp := range rk.Species {
		rk.part[i].partition(rk.shell, sp.Buf)
		rk.Kernels[i].BeginStep(step) // keys the step's wall re-emissions
	}
	rk.pushRanges(true) // the shell tail
	rk.switchPar(perf.Push, perf.Comm)
	px := d.BeginParticleExchange(rk.Kernels, rk.bufs)
	rk.switchPar(perf.Comm, perf.Push)
	rk.pushRanges(false) // the interior
	// Zeroes rk.Acc's stale window before summing, so immigrants
	// finishing their move deposit on top during the exchange. Over the
	// union window the reduce reads every pipeline accumulator, writes
	// the sum and writes the zeros that clear the accumulators.
	union := accum.Reduce(rk.pool, rk.Acc, rk.pipeAcc)
	pushBytes := int64(union) * accum.CellBytes * int64(2*len(rk.pipeAcc)+1)
	for _, k := range rk.Kernels {
		pushBytes += k.TakeTrafficBytes()
	}
	rk.Perf.AddBytes(perf.Push, pushBytes)
	hidden := rk.switchPar(perf.Push, perf.Comm)

	// Complete the migration.
	px.Complete()
	rk.switchPar(perf.Comm, perf.Field)

	// Reduce currents onto the mesh (plus the antenna drive), then the
	// field advance — B half, E full, B half — each part followed by the
	// ghost side its next reader reads (the Yee stencil): B's plane 0 for
	// the E advance, E's N+1 for the B half, B's N+1 for the interpolators.
	// J is per-step scratch: FoldGhostJ and ExchangeJ fold every deposit
	// onto its owner and mirror nothing back, as the E advance reads J on
	// planes 1..N only. ExchangeJ rides with B's fill.
	f.ClearJ()
	for _, a := range cfg.Lasers {
		a.Inject(f, tNow, cfg.DT)
	}
	rk.Acc.UnloadPar(rk.pool, f, cfg.DT)
	f.FoldGhostJ()
	f.AdvanceBPar(rk.pool, cfg.DT, 0.5)
	rk.switchPar(perf.Field, perf.Comm)
	d.ExchangeJ()
	d.FillGhostB(domain.Low)
	rk.switchPar(perf.Comm, perf.Field)
	f.AdvanceEPar(rk.pool, cfg.DT)
	rk.switchPar(perf.Field, perf.Comm)
	d.FillGhostE(domain.High)
	rk.switchPar(perf.Comm, perf.Field)
	f.AdvanceBPar(rk.pool, cfg.DT, 0.5)
	rk.switchPar(perf.Field, perf.Comm)
	d.FillGhostB(domain.High)
	rk.switchPar(perf.Comm, perf.Field)

	// Divergence cleaning.
	if doClean {
		rk.clean(cfg)
	}

	// Refresh interpolators for the next step (and for any field
	// diagnostics run between steps).
	rk.IP.LoadPar(rk.pool, f)
	rk.stopPar(perf.Field)

	// Fold the step's comm wait into the breakdown, and the interior
	// push the migrants flew behind as its overlap: on a rank with a
	// remote face (a non-nil shell) only, as no other sends a migrant.
	if st := d.Comm.Stats(); st != nil {
		rk.Perf.AddCommWait(st.TakeWait())
	}
	if rk.shell != nil {
		rk.Perf.AddCommOverlap(hidden)
	}
}

// pushRanges pushes one range of every species through the pipeline:
// the shell tail [cut, N) when shell is set, else the interior
// [0, cut). The range is cut into pipe.NumBlocks lane-aligned blocks,
// each pushed concurrently into its private accumulator, and the
// face-crossers are finished serially — bit-identical for any worker
// count (see internal/pipe). Lane-aligned cuts mean each pipeline sweeps
// whole AoSoA blocks, so the sweep sees full spans and no two pipelines
// write lanes of the same storage block. Empty ranges are skipped. With
// a shell, each species' partition candidates are collected while the
// finished movers are still in cache.
func (rk *Rank) pushRanges(shell bool) {
	for i, sp := range rk.Species {
		k, buf := rk.Kernels[i], sp.Buf
		lo, hi := 0, rk.part[i].cut
		if shell {
			lo, hi = hi, buf.N()
		}
		var blocks []*push.BlockState
		if lo < hi {
			t := rk.pushTask()
			t.k, t.buf, t.lo, t.hi = k, buf, lo, hi
			rk.pool.Run(pipe.NumBlocks, t.run)
			k.FinishBlocks(buf, rk.blockSt, rk.pipeAcc)
			blocks = rk.blockSt
		}
		if rk.shell != nil {
			rk.part[i].collect(rk.shell, buf, blocks, shell)
		}
	}
}

// pushBlocks is one push phase's operands and its per-block task,
// bound once so the pooled push allocates nothing.
type pushBlocks struct {
	rk     *Rank
	k      *push.Kernel
	buf    *particle.Buffer
	lo, hi int
	run    func(b int)
}

// pushTask returns the rank's push task, binding it on first use.
func (rk *Rank) pushTask() *pushBlocks {
	t := &rk.pushT
	if t.rk == nil {
		t.rk = rk
		t.run = t.block
	}
	return t
}

// block pushes pipeline block b of [lo, hi) into its private
// accumulator.
func (t *pushBlocks) block(b int) {
	bs := t.rk.blockSt[b]
	bs.Reset()
	blo, bhi := pipe.AlignedRange(t.lo, t.hi, pipe.NumBlocks, b, particle.Lanes)
	t.k.AdvanceBlock(t.buf, blo, bhi, t.rk.pipeAcc[b], bs)
}

// switchPar ends section from and begins section to at one clock read,
// folding the worker-pool stats of the parallel regions that ran inside
// from into the breakdown (a one-worker pool books from's time), and
// returns from's elapsed time.
func (rk *Rank) switchPar(from, to perf.Section) time.Duration {
	d := rk.Perf.Switch(from, to)
	busy, wall := rk.pool.TakeStats(d)
	rk.Perf.AddParallel(from, busy, wall)
	return d
}

// stopPar is switchPar for the step's last section.
func (rk *Rank) stopPar(s perf.Section) {
	busy, wall := rk.pool.TakeStats(rk.Perf.Stop(s))
	rk.Perf.AddParallel(s, busy, wall)
}

// clean runs the multi-rank-safe Marder passes, first filling E's low
// ghost planes: div E reads them, and the step leaves them unfilled.
func (rk *Rank) clean(cfg *Config) {
	d := rk.D
	f := d.F
	d.FillGhostE(domain.Low)
	// Assemble the target charge density.
	clear(rk.rho)
	rk.depositAllRho(rk.rho)
	if rk.rho0 != nil {
		for i, v := range rk.rho0 {
			rk.rho[i] += v
		}
	}
	for p := 0; p < cfg.CleanPasses; p++ {
		errF, _ := f.DivEError(rk.rho, rk.scratch)
		rk.scratch = errF
		f.FillNodeGhost(errF)
		d.ExchangeScalarGhost(errF)
		f.MarderPassE(errF)
		f.UpdateGhostE()
		d.ExchangeGhostE()
	}
	for p := 0; p < cfg.CleanPasses; p++ {
		div, _ := f.DivB(rk.scratch)
		rk.scratch = div
		f.FillCellGhost(div)
		d.ExchangeScalarGhost(div)
		f.MarderPassB(div)
		f.UpdateGhostB()
		d.ExchangeGhostB()
	}
}

// depositAllRho adds every species' charge density into dst, folded
// onto the owning nodes 1..N locally and across remote faces (collective).
func (rk *Rank) depositAllRho(dst []float32) {
	for _, sp := range rk.Species {
		push.DepositRho(rk.D.G, sp.Buf, sp.Q, dst)
	}
	rk.D.F.FoldNodeScalar(dst)
	rk.D.ExchangeNodeScalar(dst)
}
