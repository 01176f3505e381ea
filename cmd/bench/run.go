package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"govpic/internal/domain"
)

// tally counts attempted and failed operations: steps, jobs and
// correctness checks. Any failure makes the command exit non-zero.
type tally struct{ attempted, failed int }

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		fmt.Printf("FAIL  "+format+"\n", args...)
	}
}

// setupReps bounds the fresh constructions behind setup_s: at least
// setupMin, and for worlds that build in a few milliseconds as many as
// fit in setupBudget, so the median is not one scheduler hiccup.
const (
	setupMin    = 5
	setupMax    = 500
	setupBudget = 600 * time.Millisecond // at referenceSeconds
)

// measureSetup reports the median seconds of fresh constructions; first
// is the construction the run already paid for.
func measureSetup(first, seconds float64, build func() (func(), error)) (float64, int, error) {
	samples := []float64{first}
	budget := time.Duration(float64(setupBudget) * seconds / referenceSeconds)
	start := time.Now()
	for len(samples) < setupMin || (len(samples) < setupMax && time.Since(start) < budget) {
		// Start every construction from a collected heap, so its time does
		// not depend on where the previous one left the collector.
		runtime.GC()
		t0 := time.Now()
		closeFn, err := build()
		d := time.Since(t0).Seconds()
		if err != nil {
			return 0, 0, fmt.Errorf("set-up %d: %w", len(samples), err)
		}
		closeFn()
		samples = append(samples, d)
	}
	return median(samples), len(samples), nil
}

// endToEndVals completes an untraced run: it weighs the process while
// subject — the world or service just measured — is still alive, then
// measures set-up time with further fresh constructions.
func endToEndVals(mpart, stepMs, firstSetup, seconds float64, subject any, build func() (func(), error)) (map[string]float64, error) {
	rss, peak, err := residentMB()
	runtime.KeepAlive(subject)
	if err != nil {
		return nil, err
	}
	setup, reps, err := measureSetup(firstSetup, seconds, build)
	if err != nil {
		return nil, err
	}
	fmt.Printf("  resident %.1f MB, peak %.1f MB; set-up median %.5f s (n=%d)\n", rss, peak, setup, reps)
	return map[string]float64{"mpart_per_s": mpart, "step_ms_p50": stepMs, "rss_mb": rss, "setup_s": setup}, nil
}

// traceBlock is the length of the alternating untraced/traced blocks of
// a traced run; alternating cancels the slow drift of a heating plasma.
const traceBlock = 20

// loopResult is what the timed loop of a simulation workload measured.
type loopResult struct {
	stepMs         []float64 // one sample per Step() call
	wall           float64   // seconds, whole loop
	before, after  counters
	traceOverhead  float64 // % slower per step inside traced blocks
	particlesStart int
	energyStart    float64
}

// timedLoop runs n steps, timing each. With a tracer, odd blocks of
// traceBlock steps also record one span per step, and the difference
// between the two kinds of block is the tracing overhead.
func timedLoop(w *world, n int, tr *tracer, parent int, tl *tally) loopResult {
	res := loopResult{stepMs: make([]float64, 0, n), particlesStart: w.particles()}
	res.energyStart, _ = w.energy()
	res.before = w.counters()
	var wallU, wallT time.Duration
	var stepsU, stepsT int
	start := time.Now()
	for i := 0; i < n; {
		traced := tr != nil && (i/traceBlock)%2 == 1
		first, end := i, min(n, i+traceBlock)
		blockStart := time.Now()
		for ; i < end; i++ {
			var id int
			if traced {
				id = tr.begin("Step", parent, 0)
			}
			t0 := time.Now()
			err := w.step()
			res.stepMs = append(res.stepMs, float64(time.Since(t0).Nanoseconds())/1e6)
			if traced {
				tr.end(id)
			}
			tl.check(err == nil, "step %d: %v", i, err)
		}
		if traced {
			wallT += time.Since(blockStart)
			stepsT += end - first
		} else {
			wallU += time.Since(blockStart)
			stepsU += end - first
		}
	}
	res.wall = time.Since(start).Seconds()
	res.after = w.counters()
	if stepsU > 0 && stepsT > 0 {
		u := wallU.Seconds() / float64(stepsU)
		t := wallT.Seconds() / float64(stepsT)
		res.traceOverhead = (t - u) / u * 100
	}
	return res
}

// runSim measures a simulation workload (in-process or TCP). Without a
// tracer it returns the end-to-end metrics; with one, the per-layer
// metrics of a traced loop followed by the layer pass.
func runSim(wl *workload, seed uint64, seconds float64, tr *tracer, tl *tally) (map[string]float64, error) {
	build := func() (*world, error) {
		d, err := wl.Deck(seed)
		if err != nil {
			return nil, err
		}
		return buildWorld(wl, d)
	}
	t0 := time.Now()
	w, err := build()
	if err != nil {
		return nil, err
	}
	firstSetup := time.Since(t0).Seconds()
	defer w.close()
	// Collect the loaders' garbage before the first steps allocate their
	// scratch: whether the two overlap would otherwise be a race with the
	// concurrent collector, and peak RSS would have two modes.
	runtime.GC()

	warm := wl.warmup(seconds)
	for i := 0; i < warm; i++ {
		if err := w.step(); err != nil {
			return nil, fmt.Errorf("warm-up step %d: %w", i, err)
		}
	}
	n := wl.units(seconds)
	root := tr.begin("timed-loop", -1, 0)
	loop := timedLoop(w, n, tr, root, tl)
	tr.end(root)
	pushed := loop.after.pushed - loop.before.pushed
	mpart := float64(pushed) / loop.wall / 1e6
	p50 := median(loop.stepMs)
	fmt.Printf("%s: %d particles, %d ranks x %d workers, %s kernel, seed %d\n",
		wl.Name, loop.particlesStart, len(w.ranks), w.cfg.Workers, w.cfg.Kernel, seed)
	fmt.Printf("  timed loop: %d steps after %d warm-up, %.3f s, %.4f Mpart/s, step p50 %.4f ms (n=%d)\n",
		n, warm, loop.wall, mpart, p50, len(loop.stepMs))

	// Correctness gate.
	tl.check(w.finite(), "non-finite field or momentum")
	energyEnd, lost := w.energy()
	if wl.Periodic {
		tl.check(w.particles() == loop.particlesStart, "particle count %d -> %d on a periodic deck",
			loop.particlesStart, w.particles())
		drift := math.Abs(energyEnd-loop.energyStart) / loop.energyStart
		// The bound is stated for the reference length; a longer run may
		// drift proportionally more.
		bound := wl.DriftBound * math.Max(1, seconds/referenceSeconds)
		tl.check(drift <= bound, "relative energy drift %.3g over the timed loop exceeds %.3g", drift, bound)
		fmt.Printf("  energy drift %.3g (bound %.3g), particles conserved\n", drift, bound)
	} else {
		budget := (energyEnd + lost) / loop.energyStart
		if seconds == referenceSeconds {
			tl.check(budget >= wl.EnergyBand[0] && budget <= wl.EnergyBand[1],
				"energy budget (total+lost)/initial = %.4f outside the committed band [%g, %g]",
				budget, wl.EnergyBand[0], wl.EnergyBand[1])
		}
		fmt.Printf("  energy budget (total+lost)/initial %.4f (band [%g, %g] at %d s), %d of %d particles left\n",
			budget, wl.EnergyBand[0], wl.EnergyBand[1], referenceSeconds, w.particles(), loop.particlesStart)
	}
	crcs := w.crcs()
	fmt.Printf("  state CRCs after %d steps:%s\n", warm+n, fmtCRCs(crcs))

	// A TCP world must end bit-identical to the same deck stepped
	// in-process; the reference also serves the checkpoint measurement.
	ref := w.sim
	refDeck, err := wl.Deck(seed)
	if err != nil {
		return nil, err
	}
	if wl.Kind == kindTCP {
		if ref, err = refDeck.New(); err != nil {
			return nil, fmt.Errorf("in-process reference: %w", err)
		}
		ref.Run(warm + n)
		want := ref.StateCRCs()
		tl.check(fmtCRCs(want) == fmtCRCs(crcs), "TCP state CRCs%s differ from in-process%s", fmtCRCs(crcs), fmtCRCs(want))
		fmt.Printf("  in-process reference CRCs:%s\n", fmtCRCs(want))
	}

	if tr == nil {
		return endToEndVals(mpart, p50, firstSetup, seconds, w, func() (func(), error) {
			w2, err := build()
			if err != nil {
				return nil, err
			}
			return w2.close, nil
		})
	}

	vals := map[string]float64{"trace_overhead_pct": loop.traceOverhead}
	tailP, tailMs := tail(loop.stepMs)
	vals["step_ms_tail"] = tailMs
	fmt.Printf("  step tail p%g %.4f ms (n=%d); tracing overhead %.2f%%\n",
		tailP, vals["step_ms_tail"], len(loop.stepMs), loop.traceOverhead)
	loopMetrics(w, &loop, vals)
	if err := layerPass(w, ref, refDeck, p50, tr, tl, vals); err != nil {
		return nil, err
	}
	if err := serverProbe(seed, seconds, tr, tl, vals); err != nil {
		return nil, err
	}
	return vals, nil
}

// pushSectionUs keys rank 0's mean push-section time per step as its
// own perf clock saw it: an intermediate for the model residual, not a
// reported metric.
const pushSectionUs = "_push_section_us"

// loopMetrics derives the counts the layers already keep, over the
// timed loop: these repeat exactly for one seed.
func loopMetrics(w *world, loop *loopResult, vals map[string]float64) {
	b, a := loop.before, loop.after
	steps := float64(len(loop.stepMs))
	pushed := float64(a.pushed - b.pushed)
	bytes := float64(a.pushBytes - b.pushBytes)
	vals["push.bytes_per_particle"] = bytes / pushed
	vals["push.flops_per_byte"] = float64(a.flops-b.flops) / bytes
	vals["push.movers_per_kpart"] = float64(a.moved-b.moved) / pushed * 1000
	// Rank 0's own push-section clock over the summed step times.
	var sumMs float64
	for _, v := range loop.stepMs {
		sumMs += v
	}
	vals["push.share_pct"] = (a.pushSec - b.pushSec) * 1e3 / sumMs * 100
	vals[pushSectionUs] = (a.pushSec - b.pushSec) * 1e6 / steps
	vals["comm_wait_share"] = (a.commWait - b.commWait).Seconds() / float64(len(w.ranks)) / loop.wall

	var msgs, byts int64
	fmt.Printf("  comm per step by class (sent, all ranks):")
	for c := domain.CommClass(0); c < domain.NumCommClasses; c++ {
		m, by := a.msgs[c]-b.msgs[c], a.bytes[c]-b.bytes[c]
		msgs += m
		byts += by
		if m > 0 {
			fmt.Printf(" %s %.4g msgs %.6g B;", c, float64(m)/steps, float64(by)/steps)
		}
	}
	fmt.Println()
	vals["domain.msgs_per_step"] = float64(msgs) / steps
	vals["domain.bytes_per_step"] = float64(byts) / steps
}

func fmtCRCs(crcs []uint32) string {
	s := ""
	for _, c := range crcs {
		s += fmt.Sprintf(" %08x", c)
	}
	return s
}
