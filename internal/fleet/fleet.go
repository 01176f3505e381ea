// Package fleet implements the vpicd control plane: a coordinator that
// federates many vpicd workers into one schedulable resource, the
// service-tier analogue of driving Roadrunner's full machine as a
// single coherent campaign.
//
// Workers register over HTTP (vpicd -coordinator self-registers and
// re-registers as a heartbeat) and are actively health-checked with
// bounded-timeout probes; like the transport layer's failure detector,
// death is attributed after a fixed number of consecutive failures —
// never inferred from a hang. Submitted jobs and sweep shards are
// placed with fair-share per-tenant scheduling onto the worker with
// the most free queue slots, honouring worker 429/Retry-After
// backpressure. While a shard runs, the coordinator mirrors its CRC'd
// checkpoint, which carries the energy history; when the owning worker
// dies, the shard is relocated by resubmitting that file to a healthy
// worker via vpicd's restore endpoint — bit-identical by construction,
// because resume-from-checkpoint is. Clients get a federated API:
// sweep fan-out on submit, proxied status/results, step-granular SSE
// event streams that survive relocation gaplessly, and aggregated
// fleet metrics.
package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"govpic/internal/server"
)

const (
	// probeTimeout bounds one health probe — a wedged worker is
	// indistinguishable from a dead one, so probes never hang.
	probeTimeout = time.Second
	// deadAfter is the consecutive probe failures after which a worker
	// is declared dead and its shards relocate.
	deadAfter = 3
)

// Config sizes the coordinator. Zero values select the defaults.
type Config struct {
	// MirrorDir stores mirrored checkpoint and result artifacts, one
	// pair per fleet job (created if missing).
	MirrorDir string
	// ProbeEvery is the worker health-check interval (default 2s).
	ProbeEvery time.Duration
	// PollEvery is the per-shard status poll and mirror interval
	// (default 500ms); ten of them clamp a worker's Retry-After
	// backpressure hold.
	PollEvery time.Duration
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

func (c *Config) setDefaults() {
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 2 * time.Second
	}
	if c.PollEvery <= 0 {
		c.PollEvery = 500 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Coordinator federates registered vpicd workers. Create with New,
// serve via Handler, stop with Close.
type Coordinator struct {
	cfg    Config
	client *client
	hub    *server.Hub

	mu         sync.Mutex
	workers    map[string]*Worker // by worker ID
	byURL      map[string]string  // worker URL → ID
	nextWorker int
	jobs       map[string]*Job // by fleet job ID
	order      []string        // fleet job IDs in submit order
	nextJob    int
	closed     bool
	started    time.Time

	// lifetime counters
	submitted, relocations int64

	kick chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

// New builds a coordinator and starts its probe and scheduling loops.
func New(cfg Config) (*Coordinator, error) {
	cfg.setDefaults()
	if cfg.MirrorDir == "" {
		dir, err := os.MkdirTemp("", "vpicfleet-mirror-")
		if err != nil {
			return nil, fmt.Errorf("fleet: mirror dir: %w", err)
		}
		cfg.MirrorDir = dir
	} else if err := os.MkdirAll(cfg.MirrorDir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: mirror dir: %w", err)
	}
	c := &Coordinator{
		cfg:        cfg,
		client:     newClient(),
		hub:        server.NewHub(),
		workers:    make(map[string]*Worker),
		byURL:      make(map[string]string),
		nextWorker: 1,
		jobs:       make(map[string]*Job),
		nextJob:    1,
		started:    time.Now(),
		kick:       make(chan struct{}, 1),
		done:       make(chan struct{}),
	}
	c.wg.Add(2)
	go c.probeLoop()
	go c.scheduleLoop()
	return c, nil
}

// Close stops the probe, scheduling and shard-watch loops. Placed jobs
// keep running on their workers; a successor coordinator re-adopts
// nothing (fleet state is in-memory — see DESIGN §12 for the
// restart/drain interplay with workers).
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	for _, j := range c.jobs {
		if j.watch != nil {
			j.watch()
		}
	}
	c.mu.Unlock()
	close(c.done)
	c.wg.Wait()
	return nil
}

// kickSchedule nudges the scheduling loop without blocking.
func (c *Coordinator) kickSchedule() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// --- HTTP API ---

// Handler returns the coordinator's federated HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/workers", c.handleRegister)
	mux.HandleFunc("GET /v1/workers", c.handleWorkers)
	mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", c.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", c.handleEvents)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req struct {
		URL string `json:"url"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	wk, err := c.Register(req.URL)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, wk)
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"workers": c.Workers()})
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var req server.SubmitRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	refs, err := c.Submit(tenant, req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, server.SubmitResponse{Jobs: refs})
}

// jobDetail is the GET /v1/jobs/{id} response: the fleet-side record
// plus, when reachable, the owning worker's live job view.
type jobDetail struct {
	Job
	WorkerJob *server.Job `json:"worker_job,omitempty"`
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.mu.Lock()
	j, ok := c.jobs[id]
	var cp Job
	if ok {
		cp = *j
	}
	c.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	detail := jobDetail{Job: cp}
	if cp.State == JobPlaced {
		if wj, err := c.client.status(cp.WorkerURL, cp.WorkerJobID); err == nil {
			detail.WorkerJob = &wj
		}
	}
	writeJSON(w, http.StatusOK, detail)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.mu.Lock()
	j, ok := c.jobs[id]
	var cp Job
	if ok {
		cp = *j
	}
	c.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	if cp.State != JobCompleted {
		writeError(w, http.StatusConflict, "job %s is %s, not completed", id, cp.State)
		return
	}
	// The result is mirrored at completion; fall back to proxying the
	// owning worker if the mirror is missing.
	if f, err := os.Open(c.mirrorResultPath(id)); err == nil {
		defer f.Close()
		w.Header().Set("Content-Type", "application/json")
		io.Copy(w, f)
		return
	}
	b, err := c.client.resultBytes(cp.WorkerURL, cp.WorkerJobID)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "result unavailable: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.mu.Lock()
	_, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	server.ServeSSE(w, r, c.hub, id)
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	workersByState := map[WorkerState]int{}
	type wrow struct {
		id, url                  string
		queueDepth, free, placed int
	}
	var wrows []wrow
	placedBy := map[string]int{}
	for _, j := range c.jobs {
		if j.State == JobPlaced {
			placedBy[j.Worker]++
		}
	}
	for _, wk := range c.workers {
		workersByState[wk.State]++
		wrows = append(wrows, wrow{wk.ID, wk.URL, wk.QueueDepth, wk.QueueFree, placedBy[wk.ID]})
	}
	jobsByState := map[JobState]int{}
	tenantPlaced := map[string]int{}
	for _, j := range c.jobs {
		jobsByState[j.State]++
		if !j.State.Terminal() {
			tenantPlaced[j.Tenant]++
		}
	}
	lines := []string{
		"vpicfleet_up 1",
		fmt.Sprintf("vpicfleet_uptime_seconds %.3f", time.Since(c.started).Seconds()),
		fmt.Sprintf("vpicfleet_jobs_submitted_total %d", c.submitted),
		fmt.Sprintf("vpicfleet_relocations_total %d", c.relocations),
	}
	for _, st := range []WorkerState{WorkerAlive, WorkerDead} {
		lines = append(lines, fmt.Sprintf("vpicfleet_workers{state=%q} %d", st, workersByState[st]))
	}
	for _, st := range []JobState{JobPending, JobPlaced, JobCompleted, JobFailed} {
		lines = append(lines, fmt.Sprintf("vpicfleet_jobs{state=%q} %d", st, jobsByState[st]))
	}
	sort.Slice(wrows, func(a, b int) bool { return wrows[a].id < wrows[b].id })
	for _, r := range wrows {
		lines = append(lines,
			fmt.Sprintf("vpicfleet_worker_queue_depth{worker=%q,url=%q} %d", r.id, r.url, r.queueDepth),
			fmt.Sprintf("vpicfleet_worker_queue_free{worker=%q,url=%q} %d", r.id, r.url, r.free),
			fmt.Sprintf("vpicfleet_worker_placed{worker=%q,url=%q} %d", r.id, r.url, r.placed))
	}
	tenants := make([]string, 0, len(tenantPlaced))
	for t := range tenantPlaced {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		lines = append(lines, fmt.Sprintf("vpicfleet_tenant_active{tenant=%q} %d", t, tenantPlaced[t]))
	}
	c.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}

// Submit expands a sweep into fleet jobs (all-or-nothing validation,
// deterministic expansion order) and queues them for placement.
func (c *Coordinator) Submit(tenant string, req server.SubmitRequest) ([]server.JobRef, error) {
	specs, err := req.Specs()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("coordinator is shutting down")
	}
	refs := make([]server.JobRef, 0, len(specs))
	for _, spec := range specs {
		j := &Job{
			ID:        fmt.Sprintf("fj-%06d", c.nextJob),
			Tenant:    tenant,
			Spec:      spec,
			State:     JobPending,
			Submitted: time.Now().UTC(),
		}
		c.nextJob++
		c.jobs[j.ID] = j
		c.order = append(c.order, j.ID)
		c.submitted++
		refs = append(refs, server.JobRef{ID: j.ID, URL: "/v1/jobs/" + j.ID})
	}
	c.kickSchedule()
	return refs, nil
}

// validateWorkerURL sanity-checks a registration target.
func validateWorkerURL(raw string) (string, error) {
	raw = strings.TrimRight(strings.TrimSpace(raw), "/")
	u, err := url.Parse(raw)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return "", fmt.Errorf("fleet: worker url %q is not absolute", raw)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("fleet: worker url %q: unsupported scheme", raw)
	}
	return raw, nil
}
