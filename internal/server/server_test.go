package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"govpic/internal/deck"
	"govpic/internal/push"
)

// smallThermal is a deck sized so a job takes long enough to observe
// mid-run (hundreds of ms) yet completes quickly.
func smallThermal(steps int) deck.JSONConfig {
	return deck.JSONConfig{Deck: "thermal", Steps: steps, NX: 32, PPC: 64, Workers: 1}
}

// logCollector captures server log lines for assertions.
type logCollector struct {
	mu    sync.Mutex
	lines []string
}

func (lc *logCollector) logf(format string, args ...any) {
	lc.mu.Lock()
	lc.lines = append(lc.lines, fmt.Sprintf(format, args...))
	lc.mu.Unlock()
}

func (lc *logCollector) contains(substr string) bool {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	for _, l := range lc.lines {
		if strings.Contains(l, substr) {
			return true
		}
	}
	return false
}

func startServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.SpoolDir = dir
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	return srv, ts
}

func submit(t *testing.T, ts *httptest.Server, req SubmitRequest) (*http.Response, SubmitResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sr SubmitResponse
	json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	return resp, sr
}

func getStatus(t *testing.T, ts *httptest.Server, id string) Job {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: HTTP %d", id, resp.StatusCode)
	}
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j
}

func waitState(t *testing.T, ts *httptest.Server, id string, want State) Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		j := getStatus(t, ts, id)
		if j.State == want {
			return j
		}
		if j.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, j.State, j.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return Job{}
}

func getResult(t *testing.T, ts *httptest.Server, id string) Result {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: HTTP %d", id, resp.StatusCode)
	}
	var res Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

func checkEndpoint(t *testing.T, ts *httptest.Server, path string, wantBody string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: HTTP %d", path, resp.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if wantBody != "" && !strings.Contains(buf.String(), wantBody) {
		t.Fatalf("%s missing %q:\n%s", path, wantBody, buf.String())
	}
}

func TestSubmitRunResult(t *testing.T) {
	srv, ts := startServer(t, t.TempDir(), Config{CheckpointEvery: 20, EnergyEvery: 10})
	defer ts.Close()
	defer srv.Close()

	resp, sr := submit(t, ts, SubmitRequest{Deck: smallThermal(40)})
	if resp.StatusCode != http.StatusAccepted || len(sr.Jobs) != 1 {
		t.Fatalf("submit: HTTP %d, jobs %v", resp.StatusCode, sr.Jobs)
	}
	id := sr.Jobs[0].ID

	checkEndpoint(t, ts, "/healthz", `"status": "ok"`)
	waitState(t, ts, id, StateCompleted)
	res := getResult(t, ts, id)
	if res.Summary.Deck != "thermal" || res.Summary.Steps != 40 {
		t.Fatalf("summary = %+v", res.Summary)
	}
	// Samples at steps 0, 10, 20, 30, 40.
	if len(res.History) != 5 {
		t.Fatalf("history has %d samples, want 5", len(res.History))
	}
	if res.StateCRC == "" {
		t.Fatal("result missing state CRC")
	}
	checkEndpoint(t, ts, "/metrics", "vpicd_jobs_completed_total 1")
	checkEndpoint(t, ts, "/metrics", fmt.Sprintf("vpicd_push_asm_lanes %d\n", push.AsmLanes()))
	checkEndpoint(t, ts, "/v1/jobs", id)

	// Unknown job and premature-result errors.
	if r, _ := http.Get(ts.URL + "/v1/jobs/job-999999"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d", r.StatusCode)
	}
}

// TestStateCRCIsEndOfRunCRCs holds a result's state_crc to the state
// it fingerprints: jobs of the same deck that end in different states
// report different values, and each is every rank's state CRC at the
// last step, space-joined in rank order (vpic's "state CRCs:" line), as
// an in-process run of the same spec leaves them.
func TestStateCRCIsEndOfRunCRCs(t *testing.T) {
	srv, ts := startServer(t, t.TempDir(), Config{CheckpointEvery: 20, EnergyEvery: 10})
	defer ts.Close()
	defer srv.Close()
	spec := smallThermal(30)
	spec.Ranks = 2
	req := SubmitRequest{Deck: spec, Sweep: map[string][]float64{"uth": {0.03, 0.05}}}
	_, sub := submit(t, ts, req)
	specs, err := req.Deck.Expand(req.Sweep)
	if err != nil || len(sub.Jobs) != len(specs) {
		t.Fatalf("sweep: %d jobs, %d specs (%v)", len(sub.Jobs), len(specs), err)
	}
	seen := map[string]bool{}
	for i, jr := range sub.Jobs {
		waitState(t, ts, jr.ID, StateCompleted)
		got := getResult(t, ts, jr.ID).StateCRC
		if seen[got] {
			t.Errorf("%s: state_crc %s repeats another job's", jr.ID, got)
		}
		seen[got] = true

		d, err := specs[i].Build()
		if err != nil {
			t.Fatal(err)
		}
		sim, err := d.New()
		if err != nil {
			t.Fatal(err)
		}
		sim.Run(specs[i].Steps)
		var want []string
		for _, c := range sim.StateCRCs() {
			want = append(want, fmt.Sprintf("%08x", c))
		}
		if w := strings.Join(want, " "); got != w {
			t.Errorf("%s: state_crc %q, want the ranks' end-of-run CRCs %q", jr.ID, got, w)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	srv, ts := startServer(t, t.TempDir(), Config{})
	defer ts.Close()
	defer srv.Close()

	for _, body := range []string{
		`{not json`,
		`{"deck":{"deck":"warp-drive","steps":10}}`,
		`{"deck":{"deck":"thermal","steps":10},"sweep":{"bogus":[1]}}`,
		`{"deck":{"deck":"thermal","steps":10},"unknown_field":1}`,
		`{"deck":{"deck":"thermal","steps":10,"nx":-4}}`,
		// A removed knob is an unknown field.
		`{"deck":{"deck":"thermal","steps":10,"lanes":1}}`,
		`{"deck":{"deck":"thermal","steps":10,"overlap":false}}`,
		// A removed mode value is rejected like any unknown one.
		`{"deck":{"deck":"spike","steps":10,"ranks":2,"balance":"checkpoint"}}`,
		// A length whose cell count overflows int was a handler panic.
		`{"deck":{"deck":"lpi","a0":0.05,"steps":10,"plateau_length":1e300}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
}

// fillQueue submits a sweep of queueDepth long jobs, which fills the
// queue while a runner is busy.
func fillQueue(t *testing.T, ts *httptest.Server) SubmitResponse {
	t.Helper()
	uth := make([]float64, queueDepth)
	for i := range uth {
		uth[i] = 0.05 + 0.001*float64(i)
	}
	resp, sr := submit(t, ts, SubmitRequest{Deck: smallThermal(100000), Sweep: map[string][]float64{"uth": uth}})
	if resp.StatusCode != http.StatusAccepted || len(sr.Jobs) != queueDepth {
		t.Fatalf("filling the queue: HTTP %d, %d jobs", resp.StatusCode, len(sr.Jobs))
	}
	return sr
}

func TestBackpressureAndCancel(t *testing.T) {
	srv, ts := startServer(t, t.TempDir(), Config{Runners: 1, CheckpointEvery: 1000})
	defer ts.Close()
	defer srv.Close()

	// A long job occupies the single runner...
	_, srA := submit(t, ts, SubmitRequest{Deck: smallThermal(100000)})
	waitState(t, ts, srA.Jobs[0].ID, StateRunning)
	// ...a sweep fills every queue slot...
	srB := fillQueue(t, ts)
	// ...and the next submit must get explicit backpressure.
	respC, _ := submit(t, ts, SubmitRequest{Deck: smallThermal(10)})
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: HTTP %d, want 429", respC.StatusCode)
	}
	if respC.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	checkEndpoint(t, ts, "/metrics", fmt.Sprintf("vpicd_queue_depth %d", queueDepth))

	// Cancel a queued job in place, then the running one (which
	// checkpoints before it reports cancelled).
	reqB, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+srB.Jobs[0].ID, nil)
	if resp, err := http.DefaultClient.Do(reqB); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: %v HTTP %d", err, resp.StatusCode)
	}
	// A cancel that lands before the first step completes is honoured
	// with nothing to report, so wait for the progress the test asserts.
	j := cancelRunning(t, ts, srA.Jobs[0].ID, 1)
	if j.Progress.Step == 0 {
		t.Fatal("cancelled job reports no progress")
	}
	if _, err := os.Stat(srv.spool.checkpointPath(srA.Jobs[0].ID)); err != nil {
		t.Fatalf("cancelled job has no checkpoint: %v", err)
	}
	// Cancelling a terminal job conflicts.
	reqA, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+srA.Jobs[0].ID, nil)
	if resp, _ := http.DefaultClient.Do(reqA); resp.StatusCode != http.StatusConflict {
		t.Fatalf("re-cancel: HTTP %d, want 409", resp.StatusCode)
	}
}

// TestSweepPreemptResumeBitIdentical is the end-to-end acceptance test:
// a sweep is submitted, the daemon is killed mid-run, a successor on
// the same spool resumes from the checkpoints, and every job's energy
// history and final dynamic state are bit-identical to an uninterrupted
// reference run. Health and metrics endpoints respond throughout. On 2
// ranks the stop is collective: every member stops at one sampling
// step, which is the step the preempted job checkpointed.
func TestSweepPreemptResumeBitIdentical(t *testing.T) {
	for _, ranks := range []int{1, 2} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) { sweepPreemptResume(t, ranks) })
	}
}

func sweepPreemptResume(t *testing.T, ranks int) {
	spec := smallThermal(120)
	spec.Ranks = ranks
	req := SubmitRequest{
		Deck:  spec,
		Sweep: map[string][]float64{"uth": {0.03, 0.05}},
	}
	cfg := Config{Runners: 1, CheckpointEvery: 20, EnergyEvery: 20}

	// Reference: uninterrupted run of the same sweep.
	refSrv, refTS := startServer(t, t.TempDir(), cfg)
	_, refSub := submit(t, refTS, req)
	if len(refSub.Jobs) != 2 {
		t.Fatalf("sweep expanded to %d jobs, want 2", len(refSub.Jobs))
	}
	refResults := map[string]Result{}
	for _, jr := range refSub.Jobs {
		waitState(t, refTS, jr.ID, StateCompleted)
		refResults[jr.ID] = getResult(t, refTS, jr.ID)
	}
	refTS.Close()
	refSrv.Close()

	// Interrupted: same sweep, killed once the first job is past its
	// first periodic checkpoint.
	spoolDir := t.TempDir()
	srvA, tsA := startServer(t, spoolDir, cfg)
	_, sub := submit(t, tsA, req)
	first := sub.Jobs[0].ID
	checkEndpoint(t, tsA, "/healthz", `"status": "ok"`)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job never got past its first checkpoint")
		}
		j := getStatus(t, tsA, first)
		if j.State == StateCompleted {
			t.Fatal("job completed before preemption; enlarge the test deck")
		}
		if j.State == StateRunning && j.Progress.Step >= 21 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	checkEndpoint(t, tsA, "/metrics", "vpicd_jobs_running 1")
	tsA.Close()
	srvA.Close() // preempts: checkpoints the running job, leaves it "running" on disk

	// The spool must show an interrupted (not cancelled) job with a
	// checkpoint to resume from.
	var onDisk Job
	b, err := os.ReadFile(srvA.spool.jobPath(first))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &onDisk); err != nil {
		t.Fatal(err)
	}
	if onDisk.State != StateRunning {
		t.Fatalf("preempted job persisted as %s, want running", onDisk.State)
	}
	if step := onDisk.Progress.Step; onDisk.CheckpointStep != step || step%cfg.EnergyEvery != 0 {
		t.Fatalf("preempted at step %d, checkpointed step %d: want one sampling step", step, onDisk.CheckpointStep)
	}
	if _, err := os.Stat(srvA.spool.checkpointPath(first)); err != nil {
		t.Fatalf("preempted job has no checkpoint: %v", err)
	}

	// Successor process on the same spool: recovers, resumes, completes.
	lc := &logCollector{}
	cfgB := cfg
	cfgB.Logf = lc.logf
	srvB, tsB := startServer(t, spoolDir, cfgB)
	defer tsB.Close()
	defer srvB.Close()
	checkEndpoint(t, tsB, "/healthz", `"status": "ok"`)
	for _, jr := range sub.Jobs {
		waitState(t, tsB, jr.ID, StateCompleted)
	}
	if !lc.contains("resuming at step") {
		t.Fatalf("successor did not resume from checkpoint; log: %v", lc.lines)
	}
	checkEndpoint(t, tsB, "/metrics", "vpicd_jobs_completed_total 2")

	// Bit-identical: every sample of every job's energy history, and the
	// CRC of the full final dynamic state (fields + particles).
	for _, jr := range sub.Jobs {
		got := getResult(t, tsB, jr.ID)
		want := refResults[jr.ID]
		if !reflect.DeepEqual(got.History, want.History) {
			t.Fatalf("job %s: resumed energy history differs from uninterrupted run\ngot  %+v\nwant %+v",
				jr.ID, got.History, want.History)
		}
		if got.StateCRC == "" || got.StateCRC != want.StateCRC {
			t.Fatalf("job %s: final state CRC %q != reference %q", jr.ID, got.StateCRC, want.StateCRC)
		}
	}

	// A third server on the same spool recovers only terminal jobs and
	// starts cleanly (idempotent recovery).
	srvC, tsC := startServer(t, spoolDir, cfg)
	defer tsC.Close()
	defer srvC.Close()
	for _, jr := range sub.Jobs {
		if j := getStatus(t, tsC, jr.ID); j.State != StateCompleted {
			t.Fatalf("job %s lost its terminal state across restart: %s", jr.ID, j.State)
		}
	}
}

// TestMetricsCommCounters: a decomposed job's per-link and per-class
// comm traffic shows up in /metrics with stable labels.
func TestMetricsCommCounters(t *testing.T) {
	srv, ts := startServer(t, t.TempDir(), Config{CheckpointEvery: 50, EnergyEvery: 10})
	defer ts.Close()
	defer srv.Close()

	spec := deck.JSONConfig{Deck: "thermal", Steps: 10, NX: 16, PPC: 8, Ranks: 2, Workers: 1}
	resp, sr := submit(t, ts, SubmitRequest{Deck: spec})
	if resp.StatusCode != http.StatusAccepted || len(sr.Jobs) != 1 {
		t.Fatalf("submit: HTTP %d, jobs %v", resp.StatusCode, sr.Jobs)
	}
	waitState(t, ts, sr.Jobs[0].ID, StateCompleted)

	checkEndpoint(t, ts, "/metrics", `vpicd_comm_class_bytes_total{class="ghostE"}`)
	checkEndpoint(t, ts, "/metrics", `vpicd_comm_class_bytes_total{class="particles"}`)
	checkEndpoint(t, ts, "/metrics", `vpicd_comm_link_bytes_sent_total{link="0->1"}`)
	checkEndpoint(t, ts, "/metrics", `vpicd_comm_link_msgs_sent_total{link="1->0"}`)
}

// TestMetricsSeriesSet pins /metrics' series: after a 1-rank and a
// 2-rank job complete, the exposition has exactly these series names,
// each with exactly these label keys. A series added or dropped must
// change this list (and DESIGN §9.5's reader column) with it.
func TestMetricsSeriesSet(t *testing.T) {
	srv, ts := startServer(t, t.TempDir(), Config{CheckpointEvery: 50, EnergyEvery: 10})
	defer ts.Close()
	defer srv.Close()
	for _, ranks := range []int{1, 2} {
		spec := deck.JSONConfig{Deck: "thermal", Steps: 10, NX: 16, PPC: 8, Ranks: ranks, Workers: 1}
		_, sr := submit(t, ts, SubmitRequest{Deck: spec})
		if len(sr.Jobs) != 1 {
			t.Fatalf("%d-rank submit admitted %v", ranks, sr.Jobs)
		}
		waitState(t, ts, sr.Jobs[0].ID, StateCompleted)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	got := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
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
		"vpicd_up{}", "vpicd_uptime_seconds{}", "vpicd_queue_depth{}", "vpicd_queue_capacity{}",
		"vpicd_jobs_queued{}", "vpicd_jobs_running{}", "vpicd_jobs_completed_total{}",
		"vpicd_jobs_failed_total{}", "vpicd_jobs_cancelled_total{}", "vpicd_jobs_rejected_total{}",
		"vpicd_draining{}", "vpicd_particles_advanced_total{}", "vpicd_particle_advance_rate_mpart_s{}",
		"vpicd_comm_wait_seconds_total{}", "vpicd_comm_overlap_seconds_total{}", "vpicd_push_asm_lanes{}",
		"vpicd_jobs_kernel{kernel}", "vpicd_perf_seconds{section}", "vpicd_perf_bytes_moved_total{section}",
		"vpicd_perf_effective_gb_s{section}", "vpicd_comm_link_bytes_sent_total{link}",
		"vpicd_comm_link_msgs_sent_total{link}", "vpicd_comm_class_bytes_total{class}",
		"vpicd_comm_class_msgs_total{class}", "vpic_imbalance_ratio{job}", "vpicd_rank_particles{job,rank}",
		"vpicd_job_physics_pass{job}",
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

// cancelRunning cancels a running job once it has completed min steps
// and waits for the runner to report it cancelled (after its
// checkpoint).
func cancelRunning(t *testing.T, ts *httptest.Server, id string, min int) Job {
	t.Helper()
	for deadline := time.Now().Add(60 * time.Second); getStatus(t, ts, id).Progress.Step < min; {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached step %d", id, min)
		}
		time.Sleep(2 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("cancel %s: %v", id, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel running %s: HTTP %d", id, resp.StatusCode)
	}
	return waitState(t, ts, id, StateCancelled)
}

// TestCancelledStreamReplaysFromCheckpoint: a successor process serves
// a cancelled job's SSE stream from the history inside its checkpoint —
// the same samples the live stream carried, then the cancelled state.
func TestCancelledStreamReplaysFromCheckpoint(t *testing.T) {
	spoolDir := t.TempDir()
	cfg := Config{CheckpointEvery: 20, EnergyEvery: 5}
	srv, ts := startServer(t, spoolDir, cfg)
	_, sub := submit(t, ts, SubmitRequest{Deck: smallThermal(100000)})
	id := sub.Jobs[0].ID
	j := cancelRunning(t, ts, id, 12)
	live := readSSE(t, ts.URL+"/v1/jobs/"+id+"/events", -1)
	ts.Close()
	srv.Close()
	// The cancel stopped the run at a sampling step and checkpointed it.
	if n := len(live.samples); n < 3 || live.samples[n-1].Step != j.Progress.Step ||
		j.Progress.Step%5 != 0 || j.CheckpointStep != j.Progress.Step {
		t.Fatalf("live stream: %d samples for a job cancelled at step %d, checkpointed at %d",
			n, j.Progress.Step, j.CheckpointStep)
	}

	srv2, ts2 := startServer(t, spoolDir, cfg)
	defer ts2.Close()
	defer srv2.Close()
	recovered := readSSE(t, ts2.URL+"/v1/jobs/"+id+"/events", -1)
	if !reflect.DeepEqual(recovered.samples, live.samples) || recovered.state != string(StateCancelled) {
		t.Fatalf("successor replay: state %q, %d samples; live stream %d samples",
			recovered.state, len(recovered.samples), len(live.samples))
	}
}

// TestCloseLeavesNoGoroutines: once Close returns, nothing the server
// started for a completed job or a cancelled one — runners, every
// member of the stepping world, SSE streams — outlives it: the
// goroutine count falls back to its value before New within a bounded
// wait. The cancelled 2-rank job stopped every member at one sampling
// step and checkpointed that step.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	http.DefaultClient.CloseIdleConnections()
	base := runtime.NumGoroutine()
	cfg := Config{CheckpointEvery: 20, EnergyEvery: 5}
	srv, ts := startServer(t, t.TempDir(), cfg)
	_, done := submit(t, ts, SubmitRequest{Deck: smallThermal(40)})
	if got := readSSE(t, ts.URL+"/v1/jobs/"+done.Jobs[0].ID+"/events", -1); got.state != string(StateCompleted) {
		t.Fatalf("first job ended %q", got.state)
	}
	for _, ranks := range []int{1, 2} {
		spec := smallThermal(100000)
		spec.Ranks = ranks
		_, long := submit(t, ts, SubmitRequest{Deck: spec})
		j := cancelRunning(t, ts, long.Jobs[0].ID, 1)
		if j.CheckpointStep != j.Progress.Step || j.Progress.Step%cfg.EnergyEvery != 0 {
			t.Errorf("%d ranks: cancelled at step %d, checkpointed step %d: want one sampling step",
				ranks, j.Progress.Step, j.CheckpointStep)
		}
		readSSE(t, ts.URL+"/v1/jobs/"+long.Jobs[0].ID+"/events", -1)
	}
	ts.Close()
	srv.Close()
	http.DefaultClient.CloseIdleConnections()

	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Close, %d before New:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestJobPhysicsAttestation(t *testing.T) {
	srv, ts := startServer(t, t.TempDir(), Config{Runners: 1, EnergyEvery: 5})
	defer ts.Close()
	defer srv.Close()

	_, sr := submit(t, ts, SubmitRequest{Deck: smallThermal(60)})
	id := sr.Jobs[0].ID
	waitState(t, ts, id, StateCompleted)

	j := getStatus(t, ts, id)
	if j.Physics == nil {
		t.Fatal("completed job carries no physics attestation")
	}
	if !j.Physics.Finite {
		t.Error("thermal run attested non-finite energies")
	}
	if j.Physics.Driven {
		t.Error("thermal deck attested as driven (no lasers, no absorbing walls)")
	}
	if !j.Physics.Pass {
		t.Errorf("thermal run failed its attestation: %+v", *j.Physics)
	}
	if j.Physics.MaxDivBError > 1e-7 {
		t.Errorf("divB error %g above the float32 rounding bound", j.Physics.MaxDivBError)
	}

	res := getResult(t, ts, id)
	if res.Physics == nil || !res.Physics.Pass {
		t.Fatalf("result attestation = %+v", res.Physics)
	}

	checkEndpoint(t, ts, "/metrics", `vpicd_job_physics_pass{job="`+id+`"} 1`)
}
