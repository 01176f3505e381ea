package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"govpic/internal/core"
	"govpic/internal/deck"
	"govpic/internal/diag"
	"govpic/internal/dist"
	"govpic/internal/perf"
	"govpic/internal/push"
)

// runnerLoop is one executor: it drains the queue until close.
func (s *Server) runnerLoop() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// runJob owns one job's full execution lifecycle and state transitions.
func (s *Server) runJob(j *Job) {
	s.mu.Lock()
	if j.State.Terminal() || s.closed {
		// Cancelled while queued, or the server is draining for shutdown:
		// leave the on-disk state untouched so a successor picks it up.
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	j.State = StateRunning
	s.spool.writeJob(j)
	s.mu.Unlock()
	defer cancel()

	err := s.execute(ctx, j)

	s.mu.Lock()
	defer s.mu.Unlock()
	j.cancel = nil
	switch {
	case err == nil:
		j.State = StateCompleted
		s.completed++
		s.cfg.Logf("vpicd: %s completed (%d steps)", j.ID, j.Progress.Step)
	case errors.Is(err, context.Canceled) && j.preempted:
		// Shutdown preemption: stays "running" on disk, resumes on restart.
		s.cfg.Logf("vpicd: %s preempted at step %d (checkpointed)", j.ID, j.Progress.Step)
	case errors.Is(err, context.Canceled):
		j.State = StateCancelled
		s.cancelled++
		s.cfg.Logf("vpicd: %s cancelled at step %d (checkpointed)", j.ID, j.Progress.Step)
	default:
		j.State = StateFailed
		j.Error = err.Error()
		s.failed++
		s.cfg.Logf("vpicd: %s failed: %v", j.ID, err)
	}
	s.spool.writeJob(j)
	if j.State.Terminal() {
		s.hub.publishState(j.ID, j.State, j.Error)
	}
}

// execute runs the job's world as dist.Members in this process
// (dist.Local), resuming from the spooled checkpoint when one exists,
// publishes the run's end-of-run reports and writes the result
// artifact. One hook, run by every member after each step, publishes
// progress and samples, checkpoints on the cadence and, at a sampling
// step, stops the run on a cancellation (preempt or cancel) after
// checkpointing that step.
func (s *Server) execute(ctx context.Context, j *Job) error {
	d, err := j.Spec.Build()
	if err != nil {
		return err
	}
	steps, every, ckptEvery := j.Spec.Steps, s.cfg.EnergyEvery, s.cfg.CheckpointEvery
	ckptPath := s.spool.checkpointPath(j.ID)
	start := time.Now()
	// Rank 0 alone writes these, and execute reads them once every
	// member has returned. What ends or checkpoints the loop is the step
	// number or a collective's result, so every member agrees on it.
	var (
		published int   // history samples handed to the hub
		failure   error // a report gather or periodic checkpoint failed
	)
	afterStep := func(rs *core.RankSim) bool {
		step, rank0 := rs.StepCount(), rs.Comm().Rank() == 0
		last, sampling := step >= steps, step%every == 0
		if last && !sampling {
			// The sampling rule depends only on the step number, so an
			// interrupted run reproduces the reference history exactly.
			rs.Sample()
		}
		if rank0 {
			if published == 0 && step > 1 {
				// The first step after a restore: the x-cuts are the
				// checkpoint's unless this step balanced.
				s.cfg.Logf("vpicd: %s resuming at step %d/%d, x-cuts %v", j.ID, step-1, steps, rs.CutsX())
			}
			// The hub's monotonic dedup drops restored steps subscribers
			// already saw.
			for _, smp := range rs.History.Samples[published:] {
				s.hub.publish(j.ID, smp)
			}
			published = len(rs.History.Samples)
			s.mu.Lock()
			j.Progress.Step, j.Kernel = step, rs.Cfg.Kernel
			s.mu.Unlock()
		}
		stop := last
		if sampling && !last { // the last step's reports are the run's result
			reps, err := dist.Reports(rs) // every member decodes the same bytes
			flag := 0.0                   // rank 0's view of the cancellation decides
			if rank0 {
				if err != nil {
					failure = err
				} else {
					s.publishTotals(j, reps, start)
				}
				if ctx.Err() != nil {
					flag = 1
				}
			}
			stop = err != nil || rs.Comm().AllreduceMax(flag) > 0
		}
		if !last && (stop || step%ckptEvery == 0) {
			err := dist.Checkpoint(rs, ckptPath) // rank 0's verdict is every member's
			switch {
			case !rank0:
			case err == nil:
				s.mu.Lock()
				j.CheckpointStep = step
				s.mu.Unlock()
			case stop:
				s.cfg.Logf("vpicd: %s checkpoint on cancel failed: %v", j.ID, err)
			default:
				failure = fmt.Errorf("checkpoint failed: %w", err)
			}
			stop = stop || err != nil
		}
		return stop
	}

	// Steps only bounds the loop: the hook ends it at step steps, which
	// a resumed run reaches sooner.
	job := dist.Job{Steps: steps, Every: every, AfterStep: afterStep}
	if _, err := os.Stat(ckptPath); err == nil {
		job.Restore = ckptPath
	}
	res, err := dist.Local(d, job, nil)
	if errors.Is(err, dist.ErrRestore) {
		// A rejected checkpoint (corrupt, truncated, another problem's)
		// changed no member, and determinism makes re-running from step 0
		// merely slower, not wrong.
		s.cfg.Logf("vpicd: %s checkpoint unusable (%v); restarting from step 0", j.ID, err)
		job.Restore = ""
		res, err = dist.Local(d, job, nil)
	}
	if err != nil {
		return err
	}
	s.publishTotals(j, res.Reports, start)
	switch {
	case failure != nil:
		return failure
	case res.Steps < steps: // stopped by the cancellation rank 0 saw
		return ctx.Err()
	}

	hist := res.History.Samples
	att := attest(d, hist)
	s.mu.Lock()
	j.Physics = &att
	s.mu.Unlock()
	last, tot := hist[len(hist)-1], core.SumReports(res.Reports)
	crcs := make([]string, len(res.CRCs))
	for i, c := range res.CRCs {
		crcs[i] = fmt.Sprintf("%08x", c)
	}
	return s.spool.writeResult(j.ID, Result{
		Summary: Summary{
			Deck:      d.Name,
			Steps:     res.Steps,
			Time:      last.Time, // the last step is always sampled
			Particles: tot.Particles,
			Ranks:     d.Cfg.NRanks,
			WallClock: res.Wall.Seconds(), // this process's segment for resumed jobs
			Rates: map[string]float64{
				"Mpart_per_s": perf.Rate(tot.Pushed, res.Wall) / 1e6,
			},
			Energy: map[string]float64{
				"total": last.Total,
				"field": last.EField + last.BField,
			},
			Notes: d.Notes,
		},
		History:  hist,
		StateCRC: strings.Join(crcs, " "),
		Physics:  &att,
	})
}

// publishTotals publishes every rank's report on the job. It assigns
// the freshly gathered slice rather than filling the old one, because
// status readers copy the Job and keep its slice.
func (s *Server) publishTotals(j *Job, reps []core.RankReport, start time.Time) {
	tot := core.SumReports(reps)
	s.mu.Lock()
	defer s.mu.Unlock()
	j.Progress.Particles = tot.Particles
	j.Progress.RateMPartS = perf.Rate(tot.Pushed, time.Since(start)) / 1e6
	j.Reports = reps
}

// attest computes a completed job's physics attestation from its
// sampled energy history (see PhysicsAttestation for the rules).
func attest(d deck.Deck, samples []diag.EnergySample) PhysicsAttestation {
	att := PhysicsAttestation{Finite: true, Driven: len(d.Cfg.Lasers) > 0}
	for _, a := range d.Cfg.ParticleBC {
		if a == push.Absorb {
			att.Driven = true
		}
	}
	for _, smp := range samples {
		if math.IsNaN(smp.Total) || math.IsInf(smp.Total, 0) {
			att.Finite = false
		}
		att.MaxDivBError = math.Max(att.MaxDivBError, smp.DivBError)
	}
	if n := len(samples); n > 1 && samples[0].Total > 0 {
		att.EnergyDrift = (samples[n-1].Total - samples[0].Total) / samples[0].Total
	}
	// Bounds mirror the valid suite's conservation case: div B to
	// float32 rounding, drift to 5% for closed budgets (collisional and
	// long runs drift more than the thermal benchmark's 1e-4, so the
	// gate is generous; the valid suite holds the tight line).
	att.Pass = att.Finite && att.MaxDivBError <= 1e-7 &&
		(att.Driven || math.Abs(att.EnergyDrift) <= 0.05)
	return att
}
