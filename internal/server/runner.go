package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"govpic/internal/core"
	"govpic/internal/deck"
	"govpic/internal/diag"
	"govpic/internal/output"
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
		s.hub.PublishState(j.ID, j.State, j.Error)
	}
}

// execute builds the job's simulation (resuming from the spooled
// checkpoint when one exists), runs it to completion with periodic
// checkpoints and energy samples, and writes the result artifact. A
// cancellation checkpoints before returning so no progress is lost.
func (s *Server) execute(ctx context.Context, j *Job) error {
	d, err := j.Spec.Build()
	if err != nil {
		return err
	}
	sim, err := d.New()
	if err != nil {
		return err
	}
	s.mu.Lock()
	j.Kernel = sim.Cfg.Kernel
	s.mu.Unlock()
	// sample appends the current energies to the history and streams
	// them to SSE subscribers.
	sample := func() { s.hub.Publish(j.ID, sim.Sample()) }

	// Resume from the latest checkpoint if the spool has one. The spec
	// fixes the layout, so a resumed or relocated job's checkpoint
	// differs from the fresh build at most in its x-cuts (an online
	// rebalance moved them), which Restore adopts. A rejected checkpoint
	// (corrupt, truncated, another problem's) leaves sim untouched, so
	// the job starts fresh: determinism makes re-running from step 0
	// merely slower, not wrong.
	if f, oerr := os.Open(s.spool.checkpointPath(j.ID)); oerr == nil {
		if rerr := sim.Restore(f); rerr != nil {
			s.cfg.Logf("vpicd: %s checkpoint unusable (%v); restarting from step 0", j.ID, rerr)
		} else {
			// Replay the restored history to the hub; its monotonic dedup
			// drops steps subscribers already saw.
			for _, smp := range sim.History().Samples {
				s.hub.Publish(j.ID, smp)
			}
			s.cfg.Logf("vpicd: %s resuming at step %d/%d, x-cuts %v", j.ID, sim.StepCount(), j.Spec.Steps, sim.CutsX())
		}
		f.Close()
	}
	if len(sim.History().Samples) == 0 {
		sample()
	}

	steps := j.Spec.Steps
	every := s.cfg.EnergyEvery
	ckptEvery := s.cfg.CheckpointEvery
	wallStart := time.Now()
	basePushed := core.SumReports(sim.Reports()).Pushed
	pushed := basePushed
	var ckptErr error

	progress := func(step int) {
		// The sampling rule depends only on the step number, so an
		// interrupted run reproduces the reference history exactly.
		if step%every == 0 || step == steps {
			sample()
		}
		reps := sim.Reports()
		tot := core.SumReports(reps)
		pushed = tot.Pushed
		rate := perf.Rate(pushed-basePushed, time.Since(wallStart))
		snap := tot.Snapshot()
		s.mu.Lock()
		j.Progress = Progress{
			Step:       step,
			Steps:      steps,
			Particles:  tot.Particles,
			RateMPartS: rate / 1e6,
		}
		j.Perf = snap
		j.CommLinks = tot.Links
		j.CommTraffic = tot.Classes
		j.CommWaitSeconds = tot.CommWaitSeconds
		j.CommOverlapSeconds = tot.CommOverlapSeconds
		if len(reps) > 1 {
			j.PerRankParticles, j.ImbalanceRatio = core.RankLoad(reps)
		}
		j.pushed = pushed
		s.mu.Unlock()
		if step%ckptEvery == 0 && step < steps && ckptErr == nil {
			ckptErr = s.saveCheckpoint(j, sim)
		}
	}

	// Step-granular: between steps the simulation is quiescent, so
	// progress may sample and checkpoint it, and a cancellation (preempt
	// or cancel) stops at an exact step.
	for sim.StepCount() < steps {
		if runErr := ctx.Err(); runErr != nil {
			// Preemption or cancel: persist the exact stopping point first.
			if err := s.saveCheckpoint(j, sim); err != nil {
				s.cfg.Logf("vpicd: %s checkpoint on cancel failed: %v", j.ID, err)
			}
			return runErr
		}
		sim.Step()
		progress(sim.StepCount())
	}
	if ckptErr != nil {
		return fmt.Errorf("checkpoint failed: %w", ckptErr)
	}

	wall := time.Since(wallStart)
	hist := sim.History()
	att := attest(d, hist.Samples)
	s.mu.Lock()
	j.Physics = &att
	s.mu.Unlock()
	last := hist.Samples[len(hist.Samples)-1]
	res := Result{
		Summary: Summary{
			Deck:      d.Name,
			Steps:     sim.StepCount(),
			Time:      sim.Time(),
			Particles: sim.TotalParticles(),
			Ranks:     d.Cfg.NRanks,
			WallClock: wall.Seconds(), // this process's segment for resumed jobs
			Rates: map[string]float64{
				"Mpart_per_s": perf.Rate(pushed-basePushed, wall) / 1e6,
			},
			Energy: map[string]float64{
				"total": last.Total,
				"field": last.EField + last.BField,
			},
			Notes: d.Notes,
		},
		History:  hist.Samples,
		StateCRC: stateCRC(sim),
		Physics:  &att,
	}
	return s.spool.writeResult(j.ID, res)
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

// saveCheckpoint writes the job's checkpoint, energy history included,
// atomically.
func (s *Server) saveCheckpoint(j *Job, sim *core.Simulation) error {
	if err := output.WriteFileAtomic(s.spool.checkpointPath(j.ID), sim.Checkpoint); err != nil {
		return err
	}
	s.mu.Lock()
	j.CheckpointStep = sim.StepCount()
	s.mu.Unlock()
	return nil
}

// stateCRC fingerprints the run: the CRC trailer of its checkpoint,
// the CRC32 of every byte before it — fields, particles and the energy
// history — so two runs agree iff they are bit-exact.
func stateCRC(sim *core.Simulation) string {
	var t tail
	if err := sim.Checkpoint(&t); err != nil {
		return ""
	}
	return fmt.Sprintf("%08x", binary.LittleEndian.Uint32(t[:]))
}

// tail keeps the last four bytes written to it.
type tail [4]byte

func (t *tail) Write(p []byte) (int, error) {
	for _, b := range p[max(len(p)-len(t), 0):] {
		copy(t[:], t[1:])
		t[3] = b
	}
	return len(p), nil
}
