package fleet

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"govpic/internal/diag"
	"govpic/internal/output"
	"govpic/internal/server"
)

func (c *Coordinator) mirrorCheckpointPath(fleetID string) string {
	return filepath.Join(c.cfg.MirrorDir, fleetID+".ckpt")
}
func (c *Coordinator) mirrorResultPath(fleetID string) string {
	return filepath.Join(c.cfg.MirrorDir, fleetID+".result.json")
}

// watchShard owns one placement: it forwards the worker's SSE event
// stream into the fleet hub, polls status to mirror checkpoint
// artifacts and detect the terminal transition, and finalizes the
// fleet job. It exits when the shard ends or the placement is revoked
// (relocation or coordinator shutdown), and only after its SSE
// forwarder has, so Close waits for both.
func (c *Coordinator) watchShard(ctx context.Context, fleetID, workerURL, workerJobID string) {
	defer c.wg.Done()
	ctx, cancel := context.WithCancel(ctx)
	fwd := make(chan struct{})
	defer func() {
		cancel()
		<-fwd
	}()

	// SSE forwarder: resubscribes from the last step the fleet hub has
	// seen, so a stream re-opened after relocation (or a dropped
	// connection) replays exactly the gap. The fleet hub's monotonic
	// dedup makes overlapping replays harmless.
	go func() {
		defer close(fwd)
		for ctx.Err() == nil {
			from := c.hub.LastStep(fleetID)
			err := c.client.streamEvents(ctx, workerURL, workerJobID, from,
				func(s diag.EnergySample) { c.hub.Publish(fleetID, s) },
				func(state, errMsg string) {})
			if err == nil || ctx.Err() != nil {
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(c.cfg.PollEvery):
			}
		}
	}()

	t := time.NewTicker(c.cfg.PollEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		wj, err := c.client.status(workerURL, workerJobID)
		if err != nil {
			continue // liveness verdicts belong to the prober
		}
		c.mu.Lock()
		j := c.jobs[fleetID]
		if j == nil || j.State != JobPlaced || j.WorkerJobID != workerJobID {
			c.mu.Unlock()
			return // relocated (or removed) under us
		}
		j.WorkerState = wj.State
		j.Progress = wj.Progress
		needMirror := wj.CheckpointStep > j.MirrorStep && !wj.State.Terminal()
		c.mu.Unlock()

		if needMirror {
			c.mirrorShard(fleetID, workerURL, workerJobID, wj.CheckpointStep)
		}
		if wj.State.Terminal() {
			c.finalizeShard(fleetID, workerURL, workerJobID, wj)
			return
		}
	}
}

// mirrorShard pulls one shard's checkpoint — its energy history rides
// inside — into the mirror dir. The download is atomic, so if the
// worker dies mid-fetch the previous checkpoint remains the relocation
// source.
func (c *Coordinator) mirrorShard(fleetID, workerURL, workerJobID string, step int) {
	if err := c.client.artifact(workerURL, workerJobID, c.mirrorCheckpointPath(fleetID)); err != nil {
		return
	}
	c.mu.Lock()
	if j := c.jobs[fleetID]; j != nil && step > j.MirrorStep {
		j.MirrorStep = step
	}
	c.mu.Unlock()
}

// finalizeShard records a worker-side terminal transition. Completed
// results are mirrored (so they outlive the worker) and their full
// energy history is published before the state event — whatever the
// SSE race, subscribers always get every sample.
func (c *Coordinator) finalizeShard(fleetID, workerURL, workerJobID string, wj server.Job) {
	state := JobFailed
	if wj.State == server.StateCompleted {
		state = JobCompleted
		if b, err := c.client.resultBytes(workerURL, workerJobID); err == nil {
			if err := output.WriteFile(c.mirrorResultPath(fleetID), b, 0o644); err != nil {
				c.cfg.Logf("vpicfleet: %s: result mirror: %v", fleetID, err)
			}
			var res server.Result
			if json.Unmarshal(b, &res) == nil {
				for _, smp := range res.History {
					c.hub.Publish(fleetID, smp)
				}
			}
		}
	}
	c.mu.Lock()
	j := c.jobs[fleetID]
	if j == nil || j.State != JobPlaced || j.WorkerJobID != workerJobID {
		c.mu.Unlock()
		return
	}
	j.State = state
	j.WorkerState = wj.State
	j.Error = wj.Error
	if j.watch != nil {
		j.watch()
		j.watch = nil
	}
	c.mu.Unlock()
	// Retired checkpoint mirrors are dead weight; results stay.
	os.Remove(c.mirrorCheckpointPath(fleetID))
	c.hub.PublishState(fleetID, wj.State, wj.Error)
	c.cfg.Logf("vpicfleet: %s %s (worker job %s)", fleetID, state, workerJobID)
	c.kickSchedule() // a slot freed
}
