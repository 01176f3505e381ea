package fleet

import (
	"context"
	"errors"
	"time"

	"govpic/internal/deck"
	"govpic/internal/server"
)

// JobState is a fleet job's coordinator-side lifecycle phase.
type JobState string

const (
	// JobPending: admitted, waiting for a schedulable worker.
	JobPending JobState = "pending"
	// JobPlaced: submitted to a worker (covers the worker-side
	// queued/running phases, visible as WorkerState).
	JobPlaced    JobState = "placed"
	JobCompleted JobState = "completed"
	JobFailed    JobState = "failed"
)

// Terminal reports whether a fleet job in this state will never run
// again.
func (s JobState) Terminal() bool { return s == JobCompleted || s == JobFailed }

// Job is one fleet job: a single submitted deck or one shard of an
// expanded sweep, scheduled onto (and if need be relocated between)
// workers.
type Job struct {
	ID        string          `json:"id"`
	Tenant    string          `json:"tenant"`
	Spec      deck.JSONConfig `json:"spec"`
	State     JobState        `json:"state"`
	Submitted time.Time       `json:"submitted"`
	Error     string          `json:"error,omitempty"`

	// Placement (valid while placed; WorkerJobID/WorkerURL persist on
	// terminal jobs so results remain proxyable).
	Worker      string          `json:"worker,omitempty"`
	WorkerURL   string          `json:"worker_url,omitempty"`
	WorkerJobID string          `json:"worker_job_id,omitempty"`
	WorkerState server.State    `json:"worker_state,omitempty"`
	Progress    server.Progress `json:"progress"`

	// MirrorStep is the step of the last checkpoint mirrored into
	// MirrorDir — what a relocation resumes from (0: none yet, a
	// relocation restarts deterministically from step 0).
	MirrorStep int `json:"mirror_step"`
	// Relocations counts how many times the job moved workers.
	Relocations int `json:"relocations"`

	placing bool               // a placement RPC is in flight
	watch   context.CancelFunc // owning shard monitor; nil when unplaced
}

// scheduleLoop drains pending jobs onto workers. It wakes on kicks
// (submits, probes discovering headroom, relocations) and on a PollEvery
// backstop tick that retries after backpressure holds expire.
func (c *Coordinator) scheduleLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.PollEvery)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-c.kick:
		case <-t.C:
		}
		c.placeAll()
	}
}

// pickLocked chooses the next (job, worker) pair, or nils.
//
// Fair share: among tenants with pending work, the one with the fewest
// active (placed or in-flight) shards goes first; within a tenant,
// submit order. Placement is queue-aware: only alive, non-draining workers
// outside a backpressure hold and with probe-confirmed free queue
// slots (minus unprobed in-flight placements) are candidates, and the
// one with the most headroom wins (IDs break ties deterministically).
func (c *Coordinator) pickLocked(now time.Time) (*Job, *Worker) {
	load := map[string]int{}
	for _, j := range c.jobs {
		if j.State == JobPlaced || j.placing {
			load[j.Tenant]++
		}
	}
	var job *Job
	for _, id := range c.order {
		j := c.jobs[id]
		if j.State != JobPending || j.placing {
			continue
		}
		if job == nil || load[j.Tenant] < load[job.Tenant] {
			job = j
		}
	}
	if job == nil {
		return nil, nil
	}
	var best *Worker
	headroom := func(w *Worker) int { return w.QueueFree - w.reserved }
	for _, w := range c.workers {
		if w.State != WorkerAlive || w.Draining || now.Before(w.backoffUntil) || headroom(w) <= 0 {
			continue
		}
		if best == nil || headroom(w) > headroom(best) ||
			(headroom(w) == headroom(best) && w.ID < best.ID) {
			best = w
		}
	}
	if best == nil {
		return nil, nil
	}
	return job, best
}

// placeAll performs placements until no (job, worker) pair remains.
// The submit/restore RPC runs outside the coordinator lock.
func (c *Coordinator) placeAll() {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		j, wk := c.pickLocked(time.Now())
		if j == nil {
			c.mu.Unlock()
			return
		}
		j.placing = true
		wk.reserved++
		jobID, workerID, workerURL := j.ID, wk.ID, wk.URL
		spec := j.Spec
		mirrorStep := j.MirrorStep
		c.mu.Unlock()

		var ref server.JobRef
		var err error
		if mirrorStep > 0 {
			ref, err = c.client.restore(workerURL, spec, c.mirrorCheckpointPath(jobID))
			if err != nil && !isBackpressure(err) {
				// Unreadable/rejected mirror: a fresh run is merely slower,
				// determinism keeps it bit-identical.
				c.cfg.Logf("vpicfleet: %s restore on %s failed (%v); falling back to a fresh run", jobID, workerID, err)
				ref, err = c.client.submit(workerURL, spec)
			}
		} else {
			ref, err = c.client.submit(workerURL, spec)
		}

		c.mu.Lock()
		j2, wk2 := c.jobs[jobID], c.workers[workerID]
		if j2 != nil {
			j2.placing = false
		}
		if err != nil {
			if wk2 != nil {
				wk2.reserved--
				var bp *backpressureError
				if errors.As(err, &bp) {
					wk2.backoffUntil = time.Now().Add(min(bp.retryAfter, 10*c.cfg.PollEvery))
					// The probe snapshot overstated headroom; zero it until
					// the next probe refreshes the truth.
					wk2.QueueFree = wk2.reserved
				}
			}
			c.mu.Unlock()
			c.cfg.Logf("vpicfleet: placing %s on %s failed: %v", jobID, workerID, err)
			return // the backstop tick (or the next kick) retries
		}
		if j2 == nil {
			c.mu.Unlock()
			continue
		}
		j2.State = JobPlaced
		j2.Worker = workerID
		j2.WorkerURL = workerURL
		j2.WorkerJobID = ref.ID
		j2.WorkerState = server.StateQueued
		ctx, cancel := context.WithCancel(context.Background())
		j2.watch = cancel
		c.wg.Add(1)
		go c.watchShard(ctx, jobID, workerURL, ref.ID)
		c.mu.Unlock()
		if mirrorStep > 0 {
			c.cfg.Logf("vpicfleet: %s relocated to %s as %s (resume from step %d)", jobID, workerID, ref.ID, mirrorStep)
		} else {
			c.cfg.Logf("vpicfleet: %s placed on %s as %s", jobID, workerID, ref.ID)
		}
	}
}

// relocate returns dead-worker shards to the pending pool; the
// scheduler re-places them, resuming from the mirrored checkpoints.
func (c *Coordinator) relocate(jobIDs []string) {
	if len(jobIDs) == 0 {
		return
	}
	c.mu.Lock()
	for _, id := range jobIDs {
		j, ok := c.jobs[id]
		if !ok || j.State != JobPlaced {
			continue
		}
		if j.watch != nil {
			j.watch()
			j.watch = nil
		}
		j.State = JobPending
		j.Worker, j.WorkerURL, j.WorkerJobID = "", "", ""
		j.WorkerState = ""
		j.Relocations++
		c.relocations++
		c.cfg.Logf("vpicfleet: %s orphaned; re-queued (mirror at step %d)", id, j.MirrorStep)
	}
	c.mu.Unlock()
	c.kickSchedule()
}
