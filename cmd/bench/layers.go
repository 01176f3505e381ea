package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"govpic/internal/accum"
	"govpic/internal/core"
	"govpic/internal/deck"
	"govpic/internal/mp"
	"govpic/internal/output"
	"govpic/internal/particle"
	"govpic/internal/pipe"
	"govpic/internal/push"
	"govpic/internal/roadrunner"
	psort "govpic/internal/sort"
	"govpic/internal/transport"
)

// layerReps is the repeat count of every replayed call; the layer table
// reports medians.
const layerReps = 30

// layerPass measures every layer from outside, one public call at a
// time: rank 0's state after the timed loop is replayed phase by phase,
// then the host-level probes (mp, transport, checkpoint) run. sim is an
// in-process simulation of the workload's deck for the checkpoint
// measurement (the world itself unless that is a TCP world).
func layerPass(w *world, sim *core.Simulation, d deck.Deck, stepMs float64, tr *tracer, tl *tally, vals map[string]float64) error {
	root := tr.begin("layer-pass", -1, 0)
	defer tr.end(root)

	if err := checkpointProbe(sim, d, tr, root, vals); err != nil {
		return err
	}
	if err := replay(w, stepMs, tr, root, tl, vals); err != nil {
		return err
	}
	mpProbe(tr, root, vals)
	return transportProbe(tr, root, vals)
}

// replay times the step's phases on rank 0 through the layers' public
// functions, with the benchmark's own pool, pipeline accumulators and
// sort workspace standing in for the rank's private ones.
func replay(w *world, stepMs float64, tr *tracer, root int, tl *tally, vals map[string]float64) error {
	// A sort runs on the disorder of a whole interval: replay it there.
	if err := w.toSortDue(); err != nil {
		return err
	}
	rk := w.ranks[0]
	g, f, dt := rk.D.G, rk.D.F, w.cfg.DT
	nv := g.NV()
	pool := pipe.New(w.cfg.Workers)
	med := func(name string, prep, fn func()) float64 {
		return median(tr.reps(name, root, layerReps, prep, fn))
	}

	// Sort: each species' buffer copied, so every repeat sorts the same
	// disorder.
	ws := psort.NewWorkspace(nv)
	ws.SetPool(pool)
	var sortUs, sortPerStepUs float64
	var nPart int
	scratch := make([]*particle.Buffer, len(rk.Species))
	for i, sp := range rk.Species {
		scratch[i] = particle.NewBuffer(sp.Buf.N())
		nPart += sp.Buf.N()
		us := med("sort.ByVoxel",
			func() { scratch[i].CopyFrom(sp.Buf) },
			func() { ws.ByVoxel(scratch[i], nv) })
		sortUs += us
		if sp.SortInterval > 0 {
			sortPerStepUs += us / float64(sp.SortInterval)
		}
	}
	vals["sort.ns_per_particle"] = sortUs * 1e3 / float64(nPart)
	vals["sort.bytes_per_particle"] = float64(psort.TrafficBytes(nPart)) / float64(nPart)
	vals["sort.share_pct"] = sortPerStepUs / (stepMs * 1e3) * 100

	// Push section: clear the pipeline accumulators, sweep every species
	// in pipe.NumBlocks blocks, finish the movers, reduce — the unsplit
	// path of core's step. Migrants are dropped; the buffers are copies.
	// Push cost follows particle order through the sort cycle, so the
	// world takes one real step before every repeat: the repeats sample
	// the phases of the cycle as evenly as the timed loop's steps did
	// (two whole cycles of a sorted deck).
	pushReps := layerReps
	if iv := rk.Species[0].SortInterval; iv > 0 {
		pushReps = 2 * iv
	}
	pipeAcc := make([]*accum.Array, pipe.NumBlocks)
	blocks := make([]*push.BlockState, pipe.NumBlocks)
	for b := range pipeAcc {
		pipeAcc[b] = accum.New(g)
		blocks[b] = new(push.BlockState)
	}
	clearUs := make([]float64, pushReps)
	pushUs := make([]float64, pushReps)
	reduceUs := make([]float64, pushReps)
	for rep := 0; rep < pushReps; rep++ {
		if err := w.step(); err != nil {
			return err
		}
		for i, sp := range rk.Species {
			scratch[i].CopyFrom(sp.Buf)
		}
		clearUs[rep] = tr.timed("accum.ClearAll", root, func() { accum.ClearAll(pool, pipeAcc) })
		pushUs[rep] = tr.timed("push.AdvanceBlock+FinishBlocks", root, func() {
			for i := range rk.Species {
				k, buf := rk.Kernels[i], scratch[i]
				n := buf.N()
				pool.Run(pipe.NumBlocks, func(b int) {
					blocks[b].Reset()
					lo, hi := pipe.AlignedRange(0, n, pipe.NumBlocks, b, particle.Lanes)
					k.AdvanceBlock(buf, lo, hi, pipeAcc[b], blocks[b])
				})
				k.FinishBlocks(buf, blocks, pipeAcc)
				k.ClearOutgoing()
			}
		})
		reduceUs[rep] = tr.timed("accum.Reduce", root, func() { accum.Reduce(pool, rk.Acc, pipeAcc) })
	}
	vals["accum.clear_us"] = median(clearUs)
	vals["accum.reduce_us"] = median(reduceUs)
	pushMed := median(pushUs)
	vals["push.ns_per_particle"] = pushMed * 1e3 / float64(nPart)

	vals["accum.unload_us"] = med("accum.UnloadPar", f.ClearJ, func() { rk.Acc.UnloadPar(pool, f, dt) })
	vals["interp.load_us"] = med("interp.LoadPar", nil, func() { rk.IP.LoadPar(pool, f) })
	vals["pipe.dispatch_us"] = med("pipe.Run(noop)", nil, func() { pool.Run(pipe.NumBlocks, func(int) {}) })

	// Field: the step's B-half, E, B-half sequence with J frozen.
	advB := make([]float64, 0, 2*layerReps)
	advE := make([]float64, 0, layerReps)
	for rep := 0; rep < layerReps; rep++ {
		advB = append(advB, tr.timed("field.AdvanceBPar", root, func() { f.AdvanceBPar(pool, dt, 0.5) }))
		advE = append(advE, tr.timed("field.AdvanceEPar", root, func() { f.AdvanceEPar(pool, dt) }))
		advB = append(advB, tr.timed("field.AdvanceBPar", root, func() { f.AdvanceBPar(pool, dt, 0.5) }))
	}
	bUs, eUs := median(advB), median(advE)
	vals["field.advance_b_us"] = bUs
	vals["field.advance_e_us"] = eUs
	cells := float64(g.NX * g.NY * g.NZ)
	vals["field.mcells_per_s"] = cells / (2*bUs + eUs)

	// Marder cleaning, single-rank form: charge deposit plus the div-E
	// and div-B passes the deck asks for (2 where it asks for none).
	passes := w.cfg.CleanPasses
	if passes == 0 {
		passes = 2
	}
	rho := make([]float32, nv)
	tmp := make([]float32, nv)
	cleanUs := med("field.CleanDivE+CleanDivB", nil, func() {
		clear(rho)
		for _, sp := range rk.Species {
			push.DepositRho(g, sp.Buf, sp.Q, rho)
		}
		f.FoldNodeScalar(rho)
		if bg := rk.Background(); bg != nil {
			for i, v := range bg {
				rho[i] += v
			}
		}
		f.CleanDivE(rho, passes, tmp)
		f.CleanDivB(passes, tmp)
	})
	vals["field.clean_us"] = cleanUs
	var cleanPerStepUs float64
	if w.cfg.CleanInterval > 0 {
		cleanPerStepUs = cleanUs / float64(w.cfg.CleanInterval)
	}

	// Exchanges: every rank calls the same exchange in lock-step, timed
	// from the driver. One step performs E once, B twice and J once.
	exch := func(name string, call func(rk *core.Rank)) float64 {
		return med(name, nil, func() {
			err := onRanks(len(w.ranks), func(r int) { call(w.ranks[r]) })
			tl.check(err == nil, "%s: %v", name, err)
		})
	}
	exE := exch("domain.ExchangeGhostE", func(rk *core.Rank) { rk.D.ExchangeGhostE() })
	exB := exch("domain.ExchangeGhostB", func(rk *core.Rank) { rk.D.ExchangeGhostB() })
	exJ := exch("domain.ExchangeJ", func(rk *core.Rank) { rk.D.ExchangeJ() })
	exchUs := exE + 2*exB + exJ
	vals["domain.exchange_us"] = exchUs

	// What no replayed call explains: particle exchange, antenna drive,
	// ghost folds, rank synchronization, goroutine hand-offs.
	stepUs := stepMs * 1e3
	pushSection := vals["accum.clear_us"] + pushMed + vals["accum.reduce_us"]
	explained := sortPerStepUs + pushSection + vals["accum.unload_us"] + 2*bUs + eUs +
		cleanPerStepUs + vals["interp.load_us"] + exchUs
	vals["core.residual_pct"] = (stepUs - explained) / stepUs * 100

	// Model residuals (reported, never gated). The replayed push section
	// against what the program's own push clock saw per step:
	measuredPush := vals[pushSectionUs]
	vals["model.push_residual_pct"] = (pushSection - measuredPush) / measuredPush * 100
	// and the inner loop's share of the step — sustained over inner-loop
	// rate — against the Roadrunner model's step efficiency (paper:
	// 0.374 / 0.488 = 0.766 at 3060 triblades).
	eff := pushMed / stepUs
	model := roadrunner.Default(push.FlopsPerPush, vals["push.bytes_per_particle"]).StepEfficiency(3060)
	vals["model.step_efficiency"] = eff
	vals["model.roadrunner_residual_pct"] = (eff - model) / model * 100
	fmt.Printf("  replay: push section %.1f us of a %.1f us step; step efficiency %.3f vs Roadrunner model %.3f\n",
		pushSection, stepUs, eff, model)
	return nil
}

// checkpointProbe measures the serialized state size, a durable write
// through the same atomic-file helper the vpicd spool uses, and a
// restore into a fresh simulation.
func checkpointProbe(sim *core.Simulation, d deck.Deck, tr *tracer, root int, vals map[string]float64) error {
	var buf bytes.Buffer
	if err := sim.Checkpoint(&buf); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	vals["core.checkpoint_mb"] = float64(buf.Len()) / 1e6

	path := filepath.Join(outDir, "probe.ckpt")
	defer os.Remove(path)
	var werr error
	vals["core.checkpoint_write_ms"] = median(tr.reps("core.Checkpoint(file)", root, 5, nil, func() {
		if err := output.WriteFileAtomic(path, sim.Checkpoint); err != nil {
			werr = err
		}
	})) / 1e3
	if werr != nil {
		return fmt.Errorf("checkpoint write: %w", werr)
	}

	fresh, err := d.New()
	if err != nil {
		return err
	}
	var rerr error
	vals["core.restore_ms"] = median(tr.reps("core.Restore", root, 3, nil, func() {
		if err := fresh.Restore(bytes.NewReader(buf.Bytes())); err != nil {
			rerr = err
		}
	})) / 1e3
	if rerr != nil {
		return fmt.Errorf("restore: %w", rerr)
	}
	return nil
}

// pingPong bounces a payload between ranks 0 and 1 and returns rank 0's
// per-round-trip microseconds, one sample per batch of `batch` trips.
func pingPong(c *mp.Comm, payload any, samples, batch int, rec func(us float64)) {
	const tag = 7
	for s := 0; s < samples; s++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if c.Rank() == 0 {
				c.Send(1, tag, payload)
				c.Recv(1, tag)
			} else {
				c.Send(0, tag, c.Recv(0, tag))
			}
		}
		if c.Rank() == 0 {
			rec(float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(batch))
		}
	}
}

// mpProbe measures the in-process message layer on a 2-rank world: a
// 400 B ping-pong (the average exchange message) and a scalar allreduce.
func mpProbe(tr *tracer, root int, vals map[string]float64) {
	id := tr.begin("mp.probe", root, 0)
	defer tr.end(id)
	var rtt, all []float64
	mp.Run(2, func(c *mp.Comm) {
		pingPong(c, make([]float32, 100), 40, 50, func(us float64) { rtt = append(rtt, us) })
		for s := 0; s < 40; s++ {
			t0 := time.Now()
			for i := 0; i < 50; i++ {
				c.AllreduceSum(float64(i))
			}
			if c.Rank() == 0 {
				all = append(all, float64(time.Since(t0).Nanoseconds())/1e3/50)
			}
		}
	})
	vals["mp.rtt_us"] = median(rtt)
	vals["mp.allreduce_us"] = median(all)
}

// transportProbe measures the TCP transport on a fresh 2-rank loopback
// mesh: one-way throughput at 1 MB, round trips at 400 B and 16 kB, and
// the particle codec.
func transportProbe(tr *tracer, root int, vals map[string]float64) error {
	id := tr.begin("transport.probe", root, 0)
	defer tr.end(id)
	ts, err := connectTCP(2)
	if err != nil {
		return err
	}
	defer closeTCP(ts)

	const mbMsgs = 8
	var mbps float64
	var small, large []float64
	err = onRanks(2, func(r int) {
		c := mp.NewComm(ts[r])
		big := make([]float32, 1<<18) // 1 MB
		t0 := time.Now()
		for i := 0; i < mbMsgs; i++ {
			if r == 0 {
				c.Send(1, 9, big)
			} else {
				c.Recv(0, 9)
			}
		}
		if r == 0 {
			c.Recv(1, 9) // the receiver's acknowledgement closes the clock
			mbps = mbMsgs * float64(len(big)*4) / 1e6 / time.Since(t0).Seconds()
		} else {
			c.Send(0, 9, float64(0))
		}
		pingPong(c, make([]float32, 100), 100, 1, func(us float64) { small = append(small, us) })
		pingPong(c, make([]float32, 4096), 50, 1, func(us float64) { large = append(large, us) })
	})
	if err != nil {
		return fmt.Errorf("transport probe: %w", err)
	}
	vals["transport.mb_per_s"] = mbps
	vals["transport.rtt_us_p50"] = median(small)
	vals["transport.rtt16k_us_p50"] = median(large)

	batch := make(push.OutgoingBatch, 1000)
	var cerr error
	us := median(tr.reps("transport.Encode+DecodePayload", id, layerReps, nil, func() {
		b, err := transport.EncodePayload(nil, batch)
		if err == nil {
			_, err = transport.DecodePayload(b)
		}
		if err != nil {
			cerr = err
		}
	}))
	if cerr != nil {
		return fmt.Errorf("codec: %w", cerr)
	}
	vals["transport.codec_ns_per_particle"] = us * 1e3 / float64(len(batch))
	return nil
}
