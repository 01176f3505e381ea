package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"govpic/internal/deck"
	"govpic/internal/diag"
	"govpic/internal/server"
)

// --- scheduling policy (pure unit tests over pickLocked) ---

// coordState builds a bare Coordinator holding the given registry and
// job table — no loops, no RPC, just the placement policy under test.
func coordState(workers []*Worker, jobs []*Job) *Coordinator {
	c := &Coordinator{
		workers: map[string]*Worker{},
		jobs:    map[string]*Job{},
	}
	for _, w := range workers {
		c.workers[w.ID] = w
	}
	for _, j := range jobs {
		c.jobs[j.ID] = j
		c.order = append(c.order, j.ID)
	}
	return c
}

func TestPickLockedWorkerSelection(t *testing.T) {
	now := time.Now()
	c := coordState([]*Worker{
		{ID: "w-000001", State: WorkerAlive, QueueFree: 1},
		{ID: "w-000002", State: WorkerAlive, QueueFree: 3},
		{ID: "w-000003", State: WorkerAlive, Draining: true, QueueFree: 9},
		{ID: "w-000004", State: WorkerDead, QueueFree: 9},
		{ID: "w-000005", State: WorkerAlive, QueueFree: 9, backoffUntil: now.Add(time.Hour)},
		{ID: "w-000006", State: WorkerAlive, QueueFree: 3}, // headroom tie with w-000002
		{ID: "w-000007", State: WorkerAlive, QueueFree: 2, reserved: 2},
	}, []*Job{
		{ID: "fj-000001", Tenant: "a", State: JobPending},
	})
	j, w := c.pickLocked(now)
	if j == nil || w == nil {
		t.Fatal("no placement picked")
	}
	if w.ID != "w-000002" {
		t.Fatalf("picked worker %s; want w-000002 (max headroom, ID tie-break, "+
			"skipping draining/dead/backoff/exhausted)", w.ID)
	}
	// Once the backoff hold expires, the bigger worker wins.
	j, w = c.pickLocked(now.Add(2 * time.Hour))
	if j == nil || w.ID != "w-000005" {
		t.Fatalf("after backoff expiry picked %v; want w-000005", w)
	}
}

func TestPickLockedFairShare(t *testing.T) {
	now := time.Now()
	workers := func() []*Worker {
		return []*Worker{{ID: "w-000001", State: WorkerAlive, QueueFree: 8}}
	}
	jobs := func() []*Job {
		return []*Job{
			{ID: "fj-000001", Tenant: "a", State: JobPlaced},
			{ID: "fj-000002", Tenant: "a", State: JobPlaced},
			{ID: "fj-000003", Tenant: "a", State: JobPending}, // earlier in submit order...
			{ID: "fj-000004", Tenant: "b", State: JobPending}, // ...but b has less load
		}
	}

	// Fair share: the lighter tenant goes first despite submit order.
	c := coordState(workers(), jobs())
	j, _ := c.pickLocked(now)
	if j == nil || j.ID != "fj-000004" {
		t.Fatalf("picked %v; want fj-000004 (tenant b, load 0 < 2)", j)
	}

	// Within one tenant, submit order; an in-flight placement is load too.
	c = coordState(workers(), []*Job{
		{ID: "fj-000001", Tenant: "a", State: JobPending, placing: true},
		{ID: "fj-000002", Tenant: "a", State: JobPending},
		{ID: "fj-000003", Tenant: "a", State: JobPending},
	})
	if j, _ := c.pickLocked(now); j == nil || j.ID != "fj-000002" {
		t.Fatalf("picked %v; want fj-000002 (submit order, skip in-flight)", j)
	}
}

// --- backpressure placement (stub worker speaking 429) ---

// TestBackpressurePlacement: a worker answering 429 puts the
// coordinator into a bounded backoff hold and the shard stays pending;
// once the worker admits again, placement succeeds on retry.
func TestBackpressurePlacement(t *testing.T) {
	var accept atomic.Bool
	var rejected atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{
			"status": "ok", "jobs": 0, "queue_free": 4, "queue_depth": 0,
		})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if !accept.Load() {
			rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(server.SubmitResponse{Jobs: []server.JobRef{{ID: "job-000001"}}})
	})
	mux.HandleFunc("GET /v1/jobs/job-000001", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.Job{ID: "job-000001", State: server.StateRunning})
	})
	stub := httptest.NewServer(mux)
	defer stub.Close()

	c, err := New(Config{
		MirrorDir:  t.TempDir(),
		ProbeEvery: 10 * time.Millisecond,
		PollEvery:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Register(stub.URL); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("default", server.SubmitRequest{
		Deck: deck.JSONConfig{Deck: "thermal", Steps: 10, NX: 32, PPC: 8, Workers: 1},
	}); err != nil {
		t.Fatal(err)
	}

	// The shard must survive repeated 429s as pending, not fail.
	deadline := time.Now().Add(10 * time.Second)
	for rejected.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("worker saw %d rejections, want >= 2", rejected.Load())
		}
		c.mu.Lock()
		st := c.jobs["fj-000001"].State
		c.mu.Unlock()
		if st != JobPending {
			t.Fatalf("job is %s during backpressure, want pending", st)
		}
		time.Sleep(time.Millisecond)
	}
	accept.Store(true)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job never placed after the worker started admitting")
		}
		c.mu.Lock()
		st, wid := c.jobs["fj-000001"].State, c.jobs["fj-000001"].WorkerJobID
		c.mu.Unlock()
		if st == JobPlaced {
			if wid != "job-000001" {
				t.Fatalf("placed as %q, want job-000001", wid)
			}
			break
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseLeavesNoGoroutines: once Close returns, nothing the
// coordinator started — its loops, a finished shard's watch, a live
// shard's watch and SSE forwarder — still runs, and once the worker is
// closed too the goroutine count falls back to its value before New
// within a bounded wait. A forwarder left running loses a race against
// the stack scan, so the scenario runs several rounds.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	http.DefaultClient.CloseIdleConnections()
	base := runtime.NumGoroutine()
	buf := make([]byte, 1<<20)
	for round := 0; round < 16; round++ {
		if stacks := closeWithLiveShard(t, buf); strings.Contains(stacks, "fleet.(*Coordinator).") {
			t.Fatalf("round %d: coordinator goroutines still running after Close:\n%s", round, stacks)
		}
	}
	http.DefaultClient.CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// closeWithLiveShard runs a coordinator over one worker until one shard
// has finished through finalizeShard and another is running with its
// SSE stream open, then closes the coordinator and returns every
// goroutine's stack as Close left them, read into buf before the
// worker closes.
func closeWithLiveShard(t *testing.T, buf []byte) string {
	t.Helper()
	srv, ts := startWorker(t, server.Config{Runners: 2, CheckpointEvery: 20, EnergyEvery: 10})
	defer srv.Close()
	defer ts.Close()
	c, err := New(Config{
		MirrorDir:  t.TempDir(),
		ProbeEvery: 10 * time.Millisecond,
		PollEvery:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Register(ts.URL); err != nil {
		t.Fatal(err)
	}
	for _, steps := range []int{20, 100000} {
		if _, err := c.Submit("default", server.SubmitRequest{
			Deck: deck.JSONConfig{Deck: "thermal", Steps: steps, NX: 32, PPC: 8, Workers: 1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the short shard never completed beside a running long one")
		}
		c.mu.Lock()
		short, long := c.jobs["fj-000001"], c.jobs["fj-000002"]
		ready := short.State == JobCompleted && long.State == JobPlaced && long.WorkerState == server.StateRunning
		c.mu.Unlock()
		if ready {
			break
		}
	}
	c.Close()
	return string(buf[:runtime.Stack(buf, true)])
}

// --- e2e: kill a worker mid-run, assert bit-identical relocation ---

type fleetLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *fleetLog) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *fleetLog) contains(substr string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.lines {
		if strings.Contains(s, substr) {
			return true
		}
	}
	return false
}

// startWorker boots one in-process vpicd.
func startWorker(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	cfg.SpoolDir = t.TempDir()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, httptest.NewServer(srv.Handler())
}

// fleetJobView is the subset of GET /v1/jobs/{id} the test reads.
type fleetJobView struct {
	State       JobState `json:"state"`
	Worker      string   `json:"worker"`
	WorkerURL   string   `json:"worker_url"`
	MirrorStep  int      `json:"mirror_step"`
	Relocations int      `json:"relocations"`
	Error       string   `json:"error"`
}

func getFleetJob(t *testing.T, base, id string) fleetJobView {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet job %s: HTTP %d", id, resp.StatusCode)
	}
	var v fleetJobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// collectSSE consumes one fleet job's event stream to its state event,
// reconnecting from the last seen step if the connection drops — the
// client-side contract the gapless guarantee is for.
func collectSSE(t *testing.T, base, id string, samples *[]diag.EnergySample, state *string, done chan<- struct{}) {
	defer close(done)
	last := -1
	for tries := 0; tries < 50; tries++ {
		req, _ := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
		req.Header.Set("Last-Event-ID", fmt.Sprint(last))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		sc := bufio.NewScanner(resp.Body)
		var event, data string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				switch event {
				case "sample":
					var s diag.EnergySample
					if json.Unmarshal([]byte(data), &s) == nil && s.Step > last {
						*samples = append(*samples, s)
						last = s.Step
					}
				case "state":
					var m map[string]string
					json.Unmarshal([]byte(data), &m)
					*state = m["state"]
					resp.Body.Close()
					return
				}
				event, data = "", ""
			case strings.HasPrefix(line, "event:"):
				event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
			case strings.HasPrefix(line, "data:"):
				data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
			}
		}
		resp.Body.Close()
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFleetKillWorkerRelocate is the tentpole acceptance test: two
// workers run a two-shard sweep, the worker owning shard one is killed
// after its checkpoint is mirrored, and the coordinator relocates that
// shard onto the survivor — where it resumes from the mirrored
// checkpoint and finishes with an energy history and state CRC
// bit-identical to an unkilled control run, while the client's SSE
// stream stays gapless through the move.
func TestFleetKillWorkerRelocate(t *testing.T) {
	wcfg := server.Config{Runners: 1, CheckpointEvery: 20, EnergyEvery: 20}
	// Long enough that the kill lands before the victim finishes: the
	// step-20 mirror (a fsynced download) lands up to ~300 steps late on
	// a loaded 2-core host, and at 300 steps one kill in ten came after
	// the end, with nothing left to relocate.
	req := server.SubmitRequest{
		Deck:  deck.JSONConfig{Deck: "thermal", Steps: 1500, NX: 32, PPC: 64, Workers: 1},
		Sweep: map[string][]float64{"uth": {0.03, 0.05}},
	}

	// Control run: the same sweep, nobody killed. Expand order is
	// deterministic, so control job i corresponds to fleet shard i.
	refSrv, refTS := startWorker(t, server.Config{Runners: 2, CheckpointEvery: 20, EnergyEvery: 20})
	refBody, _ := json.Marshal(req)
	refResp, err := http.Post(refTS.URL+"/v1/jobs", "application/json", bytes.NewReader(refBody))
	if err != nil {
		t.Fatal(err)
	}
	var refSub server.SubmitResponse
	json.NewDecoder(refResp.Body).Decode(&refSub)
	refResp.Body.Close()
	if len(refSub.Jobs) != 2 {
		t.Fatalf("control sweep expanded to %d jobs, want 2", len(refSub.Jobs))
	}
	var refResults []server.Result
	for _, jr := range refSub.Jobs {
		refResults = append(refResults, waitWorkerResult(t, refTS.URL, jr.ID))
	}
	refTS.Close()
	refSrv.Close()

	// The fleet under test: coordinator + two workers.
	lg := &fleetLog{}
	c, err := New(Config{
		MirrorDir:  t.TempDir(),
		ProbeEvery: 20 * time.Millisecond,
		PollEvery:  5 * time.Millisecond,
		Logf:       lg.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cts := httptest.NewServer(c.Handler())
	defer cts.Close()

	type workerProc struct {
		srv *server.Server
		ts  *httptest.Server
	}
	procs := map[string]*workerProc{} // base URL → process
	for i := 0; i < 2; i++ {
		srv, ts := startWorker(t, wcfg)
		procs[ts.URL] = &workerProc{srv, ts}
		if _, err := c.Register(ts.URL); err != nil {
			t.Fatal(err)
		}
	}

	body, _ := json.Marshal(req)
	resp, err := http.Post(cts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub server.SubmitResponse
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || len(sub.Jobs) != 2 {
		t.Fatalf("fleet submit: HTTP %d, %d jobs", resp.StatusCode, len(sub.Jobs))
	}
	victim := sub.Jobs[0].ID

	// A client watches the victim shard the whole way through the kill.
	var samples []diag.EnergySample
	var finalState string
	sseDone := make(chan struct{})
	go collectSSE(t, cts.URL, victim, &samples, &finalState, sseDone)

	// Wait for the victim's checkpoint to be mirrored, then kill its
	// worker without ceremony: connections cut, listener gone.
	deadline := time.Now().Add(60 * time.Second)
	var victimURL string
	for {
		if time.Now().After(deadline) {
			t.Fatal("victim shard never mirrored a checkpoint")
		}
		v := getFleetJob(t, cts.URL, victim)
		if v.State.Terminal() {
			t.Fatalf("victim finished (%s) before the kill; enlarge the deck", v.State)
		}
		if v.MirrorStep >= 20 {
			victimURL = v.WorkerURL
			break
		}
		time.Sleep(time.Millisecond)
	}
	proc := procs[victimURL]
	if proc == nil {
		t.Fatalf("victim worker URL %q not one of ours", victimURL)
	}
	proc.ts.CloseClientConnections()
	proc.ts.Close()
	go proc.srv.Close() // reap the runner; the coordinator only sees the dead port

	// Both shards must complete; the victim must have moved.
	for _, jr := range sub.Jobs {
		for {
			if time.Now().After(deadline) {
				t.Fatalf("shard %s never completed; log: %v", jr.ID, lg.lines)
			}
			v := getFleetJob(t, cts.URL, jr.ID)
			if v.State == JobCompleted {
				break
			}
			if v.State == JobFailed {
				t.Fatalf("shard %s failed: %s", jr.ID, v.Error)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	v := getFleetJob(t, cts.URL, victim)
	if v.Relocations < 1 {
		t.Fatalf("victim shard reports %d relocations, want >= 1", v.Relocations)
	}
	if !lg.contains("declared dead") {
		t.Fatalf("no attributed worker death in log: %v", lg.lines)
	}
	if !lg.contains("resume from step") {
		t.Fatalf("relocation did not resume from the mirrored checkpoint; log: %v", lg.lines)
	}

	// Bit-identical: each shard's history and final-state CRC match the
	// unkilled control run exactly.
	for i, jr := range sub.Jobs {
		got := fleetResult(t, cts.URL, jr.ID)
		want := refResults[i]
		if !reflect.DeepEqual(got.History, want.History) {
			t.Fatalf("shard %s: relocated history differs from control\ngot  %+v\nwant %+v",
				jr.ID, got.History, want.History)
		}
		if got.StateCRC == "" || got.StateCRC != want.StateCRC {
			t.Fatalf("shard %s: state CRC %q != control %q", jr.ID, got.StateCRC, want.StateCRC)
		}
	}

	// The client's stream saw every sample exactly once, in order,
	// through the relocation, then the terminal state.
	select {
	case <-sseDone:
	case <-time.After(30 * time.Second):
		t.Fatal("SSE stream never delivered the terminal state")
	}
	if finalState != string(server.StateCompleted) {
		t.Fatalf("SSE terminal state %q, want completed", finalState)
	}
	want := refResults[0].History
	if len(samples) != len(want) {
		t.Fatalf("SSE delivered %d samples, control history has %d", len(samples), len(want))
	}
	for i := range samples {
		if samples[i].Step != want[i].Step {
			t.Fatalf("SSE sample %d is step %d, control has %d (gap or dup)", i, samples[i].Step, want[i].Step)
		}
	}

	// Fleet metrics surface the move. Relocations may exceed one: a
	// probe-starved survivor can be transiently declared dead too, and
	// its shards move again — harmlessly, by the same bit-identical path.
	mresp, err := http.Get(cts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	var relocTotal int
	for _, line := range strings.Split(buf.String(), "\n") {
		fmt.Sscanf(line, "vpicfleet_relocations_total %d", &relocTotal)
	}
	if relocTotal < 1 {
		t.Fatalf("/metrics vpicfleet_relocations_total %d, want >= 1:\n%s", relocTotal, buf.String())
	}
	if !strings.Contains(buf.String(), `vpicfleet_jobs{state="completed"} 2`) {
		t.Fatalf("/metrics missing completed-jobs count:\n%s", buf.String())
	}

	// Survivor cleanup (the victim's srv.Close runs in the background).
	for url, p := range procs {
		if url != victimURL {
			p.ts.Close()
			p.srv.Close()
		}
	}
}

func waitWorkerResult(t *testing.T, base, id string) server.Result {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("worker job %s never completed", id)
		}
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var j server.Job
		json.NewDecoder(resp.Body).Decode(&j)
		resp.Body.Close()
		if j.State == server.StateCompleted {
			break
		}
		if j.State.Terminal() {
			t.Fatalf("worker job %s reached %s (%s)", id, j.State, j.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res server.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

func fleetResult(t *testing.T, base, id string) server.Result {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet result %s: HTTP %d", id, resp.StatusCode)
	}
	var res server.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMetricsSeriesSet pins the coordinator's /metrics series, the twin
// of server.TestMetricsSeriesSet: with one worker running one tenant's
// job, the exposition has exactly these series names, each with exactly
// these label keys. A series added, dropped or renamed must change this
// list with it.
func TestMetricsSeriesSet(t *testing.T) {
	srv, ts := startWorker(t, server.Config{Runners: 1, CheckpointEvery: 50, EnergyEvery: 10})
	defer srv.Close()
	defer ts.Close()
	c, err := New(Config{MirrorDir: t.TempDir(), ProbeEvery: 10 * time.Millisecond, PollEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Register(ts.URL); err != nil {
		t.Fatal(err)
	}
	// Long enough to be running at the scrape: a tenant is listed while
	// one of its jobs is not terminal.
	if _, err := c.Submit("tenant-a", server.SubmitRequest{
		Deck: deck.JSONConfig{Deck: "thermal", Steps: 100000, NX: 16, PPC: 8, Workers: 1},
	}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the job was never placed and running")
		}
		c.mu.Lock()
		j := c.jobs["fj-000001"]
		running := j.State == JobPlaced && j.WorkerState == server.StateRunning
		c.mu.Unlock()
		if running {
			break
		}
	}
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	got := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		series, _, _ := strings.Cut(line, " ")
		name, labels, _ := strings.Cut(strings.TrimSuffix(series, "}"), "{")
		var keys []string
		for _, kv := range strings.Split(labels, ",") {
			if k, _, ok := strings.Cut(kv, "="); ok {
				keys = append(keys, k)
			}
		}
		got[name+"{"+strings.Join(keys, ",")+"}"] = true
	}
	want := []string{
		"vpicfleet_up{}", "vpicfleet_uptime_seconds{}", "vpicfleet_jobs_submitted_total{}",
		"vpicfleet_relocations_total{}", "vpicfleet_workers{state}", "vpicfleet_jobs{state}",
		"vpicfleet_worker_queue_depth{worker,url}", "vpicfleet_worker_queue_free{worker,url}",
		"vpicfleet_worker_placed{worker,url}", "vpicfleet_tenant_active{tenant}",
	}
	for _, series := range want {
		if !got[series] {
			t.Errorf("/metrics lacks %s", series)
		}
		delete(got, series)
	}
	for series := range got {
		t.Errorf("/metrics has unlisted series %s", series)
	}
	if t.Failed() {
		t.Logf("/metrics:\n%s", body)
	}
}
