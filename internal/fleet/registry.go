package fleet

import (
	"fmt"
	"sync"
	"time"
)

// WorkerState is a worker's liveness verdict.
type WorkerState string

const (
	// WorkerAlive: the last probe (or registration) succeeded.
	WorkerAlive WorkerState = "alive"
	// WorkerDead: deadAfter consecutive probes failed — attributed
	// death, the only way a worker leaves the schedulable pool. A dead
	// worker keeps being probed and revives on success or
	// re-registration (rolling restart on the same URL).
	WorkerDead WorkerState = "dead"
)

// Worker is one registered vpicd instance as the coordinator sees it.
type Worker struct {
	ID       string      `json:"id"`
	URL      string      `json:"url"`
	State    WorkerState `json:"state"`
	Draining bool        `json:"draining"`
	// QueueFree/QueueDepth are the admission headroom and backlog from
	// the last successful probe — the scheduler's placement signal.
	QueueFree  int       `json:"queue_free"`
	QueueDepth int       `json:"queue_depth"`
	LastSeen   time.Time `json:"last_seen"`

	failures     int       // consecutive probe failures
	reserved     int       // placements since the last probe refresh
	backoffUntil time.Time // 429 Retry-After hold
}

// Register adds a worker by base URL (idempotent: re-registering an
// existing URL refreshes liveness, reviving a dead worker — how a
// drained-and-restarted vpicd rejoins). The first probe runs
// asynchronously; placement waits for it to learn queue headroom.
func (c *Coordinator) Register(rawURL string) (Worker, error) {
	u, err := validateWorkerURL(rawURL)
	if err != nil {
		return Worker{}, err
	}
	c.mu.Lock()
	if id, ok := c.byURL[u]; ok {
		wk := c.workers[id]
		revived := wk.State == WorkerDead
		wk.State = WorkerAlive
		wk.failures = 0
		wk.LastSeen = time.Now()
		cp := *wk
		c.mu.Unlock()
		if revived {
			c.cfg.Logf("vpicfleet: worker %s (%s) re-registered, revived", cp.ID, u)
			c.kickSchedule()
		}
		go c.probe(cp.ID, u)
		return cp, nil
	}
	wk := &Worker{
		ID:       fmt.Sprintf("w-%06d", c.nextWorker),
		URL:      u,
		State:    WorkerAlive,
		LastSeen: time.Now(),
	}
	c.nextWorker++
	c.workers[wk.ID] = wk
	c.byURL[u] = wk.ID
	cp := *wk
	c.mu.Unlock()
	c.cfg.Logf("vpicfleet: worker %s registered at %s", cp.ID, u)
	go c.probe(cp.ID, u)
	return cp, nil
}

// Workers snapshots the registry, ID-ordered.
func (c *Coordinator) Workers() []Worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Worker, 0, len(c.workers))
	for i := 1; i < c.nextWorker; i++ {
		if wk, ok := c.workers[fmt.Sprintf("w-%06d", i)]; ok {
			out = append(out, *wk)
		}
	}
	return out
}

// probeLoop health-checks every registered worker (dead ones included,
// for revival) once per ProbeEvery, each probe bounded by probeTimeout
// and run concurrently so one black-holed worker cannot delay the
// verdict on the rest.
func (c *Coordinator) probeLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
		}
		c.mu.Lock()
		type target struct{ id, url string }
		targets := make([]target, 0, len(c.workers))
		for _, wk := range c.workers {
			targets = append(targets, target{wk.ID, wk.URL})
		}
		c.mu.Unlock()
		var wg sync.WaitGroup
		for _, tg := range targets {
			wg.Add(1)
			go func(tg target) {
				defer wg.Done()
				c.probe(tg.id, tg.url)
			}(tg)
		}
		wg.Wait()
	}
}

// probe runs one bounded health check and applies its verdict.
func (c *Coordinator) probe(id, url string) {
	h, err := c.client.health(url)
	c.mu.Lock()
	wk, ok := c.workers[id]
	if !ok {
		c.mu.Unlock()
		return
	}
	if err != nil {
		wk.failures++
		if wk.failures >= deadAfter && wk.State != WorkerDead {
			wk.State = WorkerDead
			fails := wk.failures
			orphans := c.placedOnLocked(id)
			c.mu.Unlock()
			c.cfg.Logf("vpicfleet: worker %s (%s) declared dead after %d failed probes (%v); relocating %d shard(s)",
				id, url, fails, err, len(orphans))
			c.relocate(orphans)
			return
		}
		c.mu.Unlock()
		return
	}
	revived := wk.State == WorkerDead
	wk.State = WorkerAlive
	wk.failures = 0
	wk.LastSeen = time.Now()
	wk.QueueFree = h.QueueFree
	wk.QueueDepth = h.QueueDepth
	wk.Draining = h.Status != "ok"
	wk.reserved = 0
	free := h.QueueFree > 0 && !wk.Draining
	pending := false
	for _, j := range c.jobs {
		if j.State == JobPending && !j.placing {
			pending = true
			break
		}
	}
	c.mu.Unlock()
	if revived {
		c.cfg.Logf("vpicfleet: worker %s (%s) revived", id, url)
	}
	if free && pending {
		c.kickSchedule()
	}
}

// placedOnLocked lists the fleet job IDs currently placed on a worker.
func (c *Coordinator) placedOnLocked(workerID string) []string {
	var ids []string
	for _, id := range c.order {
		if j := c.jobs[id]; j.State == JobPlaced && j.Worker == workerID {
			ids = append(ids, id)
		}
	}
	return ids
}
