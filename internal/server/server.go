package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"govpic/internal/core"
	"govpic/internal/deck"
	"govpic/internal/diag"
)

// queueDepth bounds the FIFO of admitted-but-not-running jobs; a full
// queue answers 429 with Retry-After.
const queueDepth = 16

// Config sizes the service. Zero values select the defaults.
type Config struct {
	// SpoolDir is the durable job store; it is created if missing and
	// rescanned for unfinished jobs on startup.
	SpoolDir string
	// Runners is the number of concurrent job executors (default 1 —
	// each job already parallelizes over its ranks × workers).
	Runners int
	// CheckpointEvery is the crash-safety interval in steps (default 50).
	CheckpointEvery int
	// EnergyEvery is the energy-history sampling interval in steps
	// (default 10). It is part of the result's identity: a sweep and its
	// uninterrupted reference must use the same value to compare
	// histories.
	EnergyEvery int
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

func (c *Config) setDefaults() {
	if c.Runners <= 0 {
		c.Runners = 1
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 50
	}
	if c.EnergyEvery <= 0 {
		c.EnergyEvery = 10
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Server is the vpicd job service. Create with New, serve via Handler,
// stop with Close (which checkpoint-preempts running jobs so a
// successor process resumes them from the spool).
type Server struct {
	cfg   Config
	spool spool
	queue *fifo
	hub   *hub

	mu       sync.Mutex
	jobs     map[string]*Job
	nextID   int
	closed   bool
	draining bool
	started  time.Time

	// lifetime counters (this process; reset on restart)
	completed, failed, cancelled, rejected int64

	drainCh chan struct{}
	wg      sync.WaitGroup
}

// New builds a server over a spool directory, recovers unfinished jobs
// (queued jobs re-enqueue; interrupted running jobs resume from their
// last checkpoint), and starts the runner pool.
func New(cfg Config) (*Server, error) {
	cfg.setDefaults()
	sp, err := newSpool(cfg.SpoolDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		spool:   sp,
		hub:     newHub(),
		jobs:    make(map[string]*Job),
		nextID:  1,
		started: time.Now(),
		drainCh: make(chan struct{}),
	}
	recovered, err := sp.scan()
	if err != nil {
		return nil, err
	}
	var resume []*Job
	for _, j := range recovered {
		s.jobs[j.ID] = j
		var n int
		if _, err := fmt.Sscanf(j.ID, "job-%d", &n); err == nil && n >= s.nextID {
			s.nextID = n + 1
		}
		if !j.State.Terminal() {
			resume = append(resume, j)
		}
	}
	// The queue must admit every recovered job, even a backlog deeper
	// than queueDepth that an older process accepted.
	s.queue = newFifo(max(queueDepth, len(resume)))
	for _, j := range resume {
		s.queue.tryPush(j)
		s.cfg.Logf("vpicd: recovered %s (%s, step %d/%d)", j.ID, j.State, j.Progress.Step, j.Spec.Steps)
	}
	for i := 0; i < cfg.Runners; i++ {
		s.wg.Add(1)
		go s.runnerLoop()
	}
	return s, nil
}

// Close preempts the service: running jobs are cancelled, checkpointed
// and left in state "running" on disk so the next New on the same spool
// resumes them; queued jobs stay queued on disk. Blocks until all
// runners exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for _, j := range s.jobs {
		if j.cancel != nil {
			j.preempted = true
			j.cancel()
		}
	}
	s.mu.Unlock()
	s.queue.close()
	s.wg.Wait()
	return nil
}

// --- HTTP API ---

// SubmitRequest is the POST /v1/jobs body: one deck config, optionally
// expanded over a parameter sweep into one job per combination.
type SubmitRequest struct {
	Deck  deck.JSONConfig      `json:"deck"`
	Sweep map[string][]float64 `json:"sweep,omitempty"`
}

// JobRef locates one admitted job.
type JobRef struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// specs expands the sweep and validates every member, so a sweep is
// admitted all-or-nothing: no partial campaigns.
func (r SubmitRequest) specs() ([]deck.JSONConfig, error) {
	specs, err := r.Deck.Expand(r.Sweep)
	if err != nil {
		return nil, err
	}
	for i, spec := range specs {
		if _, err := spec.Build(); err != nil {
			return nil, fmt.Errorf("sweep member %d: %v", i, err)
		}
	}
	return specs, nil
}

// SubmitResponse lists the admitted jobs in sweep-expansion order.
type SubmitResponse struct {
	Jobs []JobRef `json:"jobs"`
}

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/drain", s.handleDrain)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
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

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var req SubmitRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	specs, err := req.specs()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.admit(w, specs)
}

// admit refuses every spec while draining (503) or unless the queue has
// a slot for each (429 with Retry-After), so a sweep is admitted whole
// or not at all. Each admitted spec gets an ID and a spooled record,
// and only then is the job queued.
func (s *Server) admit(w http.ResponseWriter, specs []deck.JSONConfig) {
	s.mu.Lock()
	fail := func(code int, format string, args ...any) {
		s.mu.Unlock()
		writeError(w, code, format, args...)
	}
	if s.closed || s.draining {
		fail(http.StatusServiceUnavailable, "server is draining")
		return
	}
	if free := s.queue.free(); free < len(specs) {
		s.rejected++
		w.Header().Set("Retry-After", "5")
		fail(http.StatusTooManyRequests, "queue full: %d slots free, %d jobs submitted", free, len(specs))
		return
	}
	resp := SubmitResponse{}
	for _, spec := range specs {
		j := &Job{
			ID:        fmt.Sprintf("job-%06d", s.nextID),
			Spec:      spec,
			State:     StateQueued,
			Submitted: time.Now().UTC(),
			Progress:  Progress{Steps: spec.Steps},
		}
		s.nextID++
		if err := s.spool.writeJob(j); err != nil {
			fail(http.StatusInternalServerError, "spool write failed: %v", err)
			return
		}
		s.jobs[j.ID] = j
		s.queue.tryPush(j) // cannot fail: free() checked under the same lock
		resp.Jobs = append(resp.Jobs, JobRef{ID: j.ID, URL: "/v1/jobs/" + j.ID})
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, resp)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	stateQ := State(r.URL.Query().Get("state"))
	switch stateQ {
	case "", StateQueued, StateRunning, StateCompleted, StateFailed, StateCancelled:
	default:
		writeError(w, http.StatusBadRequest, "unknown state %q", stateQ)
		return
	}
	s.mu.Lock()
	list := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if stateQ != "" && j.State != stateQ {
			continue
		}
		cp := *j
		list = append(list, &cp)
	}
	s.mu.Unlock()
	// Deterministic submit-time order (IDs break recovered-job ties,
	// where Submitted survives the restart but clocks could collide).
	sort.Slice(list, func(a, b int) bool {
		if !list[a].Submitted.Equal(list[b].Submitted) {
			return list[a].Submitted.Before(list[b].Submitted)
		}
		return list[a].ID < list[b].ID
	})
	writeJSON(w, http.StatusOK, map[string]any{"jobs": list})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var cp Job
	if ok {
		cp = *j
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, &cp)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	state := StateQueued
	if ok {
		state = j.State
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	if state != StateCompleted {
		writeError(w, http.StatusConflict, "job %s is %s, not completed", id, state)
		return
	}
	f, err := os.Open(s.spool.resultPath(id))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "result unavailable: %v", err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/json")
	io.Copy(w, f)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	if j.State.Terminal() {
		state := j.State
		s.mu.Unlock()
		writeError(w, http.StatusConflict, "job %s already %s", id, state)
		return
	}
	if j.cancel != nil {
		// Running: the runner checkpoints, then marks it cancelled.
		j.cancel()
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, map[string]string{"status": "cancelling"})
		return
	}
	// Still queued: retire it in place; the runner skips it on pop.
	j.State = StateCancelled
	s.cancelled++
	s.spool.writeJob(j)
	s.hub.publishState(j.ID, StateCancelled, "")
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{"status": "cancelled"})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.jobs)
	closed := s.closed
	draining := s.draining
	queueFree := s.queue.free()
	queueDepth := s.queue.depth()
	s.mu.Unlock()
	status := "ok"
	code := http.StatusOK
	if draining {
		// Still serving status, results and streams, but not admitting.
		status = "draining"
	}
	if closed {
		status = "shutting-down"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":      status,
		"uptime_s":    time.Since(s.started).Seconds(),
		"jobs":        n,
		"queue_free":  queueFree,
		"queue_depth": queueDepth,
	})
}

// Drain stops admissions (submit answers 503) without touching running
// jobs and signals DrainRequested. The process owner is expected to
// then Close (checkpointing running jobs) and exit 0 so a successor on
// the same spool resumes the backlog — the rolling-restart primitive.
func (s *Server) Drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	s.draining = true
	close(s.drainCh)
}

// DrainRequested is closed when a drain has been requested (via Drain
// or POST /v1/drain).
func (s *Server) DrainRequested() <-chan struct{} { return s.drainCh }

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.Drain()
	s.cfg.Logf("vpicd: drain requested; admissions stopped")
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "draining"})
}

// handleEvents streams a job's step-granular energy samples over SSE,
// ending with a terminal state event. A terminal job recovered from a
// previous process has no live stream; its history is replayed from
// the spool instead.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var state State
	var errMsg string
	if ok {
		state = j.State
		errMsg = j.Error
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	if state.Terminal() && !s.hub.ended(id) {
		s.seedTerminalStream(id, state, errMsg)
	}
	serveSSE(w, r, s.hub, id)
}

// seedTerminalStream loads a terminal job's energy history from the
// spool — a completed job's result, or a stopped job's checkpoint —
// into the hub so SSE replay works across process restarts.
func (s *Server) seedTerminalStream(id string, state State, errMsg string) {
	var samples []diag.EnergySample
	if state == StateCompleted {
		if f, err := os.Open(s.spool.resultPath(id)); err == nil {
			var res Result
			if json.NewDecoder(f).Decode(&res) == nil {
				samples = res.History
			}
			f.Close()
		}
	} else if f, err := os.Open(s.spool.checkpointPath(id)); err == nil {
		if h, err := core.CheckpointHistory(f); err == nil {
			samples = h.Samples
		}
		f.Close()
	}
	for _, smp := range samples {
		s.hub.publish(id, smp)
	}
	s.hub.publishState(id, state, errMsg)
}
