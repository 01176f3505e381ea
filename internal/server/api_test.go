package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"govpic/internal/diag"
)

// TestListFilterAndOrder: GET /v1/jobs?state= filters, the listing is
// submit-time ordered, and unknown states answer 400.
func TestListFilterAndOrder(t *testing.T) {
	srv, ts := startServer(t, t.TempDir(), Config{Runners: 1, CheckpointEvery: 1000})
	defer ts.Close()
	defer srv.Close()

	_, quick := submit(t, ts, SubmitRequest{Deck: smallThermal(10)})
	waitState(t, ts, quick.Jobs[0].ID, StateCompleted)
	_, long := submit(t, ts, SubmitRequest{Deck: smallThermal(100000)})
	waitState(t, ts, long.Jobs[0].ID, StateRunning)
	_, queued := submit(t, ts, SubmitRequest{Deck: smallThermal(10)})

	list := func(q string) []Job {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list %q: HTTP %d", q, resp.StatusCode)
		}
		var out struct{ Jobs []Job }
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Jobs
	}

	all := list("")
	if len(all) != 3 {
		t.Fatalf("unfiltered list has %d jobs, want 3", len(all))
	}
	wantOrder := []string{quick.Jobs[0].ID, long.Jobs[0].ID, queued.Jobs[0].ID}
	for i, j := range all {
		if j.ID != wantOrder[i] {
			t.Fatalf("list order: position %d is %s, want %s", i, j.ID, wantOrder[i])
		}
	}
	if !sortedBySubmit(all) {
		t.Fatal("list is not submit-time ordered")
	}
	for state, wantID := range map[string]string{
		"completed": quick.Jobs[0].ID,
		"running":   long.Jobs[0].ID,
		"queued":    queued.Jobs[0].ID,
	} {
		got := list("?state=" + state)
		if len(got) != 1 || got[0].ID != wantID {
			t.Fatalf("state=%s returned %+v, want exactly %s", state, got, wantID)
		}
	}
	if resp, _ := http.Get(ts.URL + "/v1/jobs?state=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("state=bogus: HTTP %d, want 400", resp.StatusCode)
	}
}

func sortedBySubmit(jobs []Job) bool {
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Submitted.Before(jobs[i-1].Submitted) {
			return false
		}
	}
	return true
}

// TestDrain: POST /v1/drain stops admissions (503) while the health
// endpoint reports draining; Close then checkpoint-preempts and a
// successor on the same spool resumes the interrupted job.
func TestDrain(t *testing.T) {
	spoolDir := t.TempDir()
	cfg := Config{Runners: 1, CheckpointEvery: 10, EnergyEvery: 10}
	srv, ts := startServer(t, spoolDir, cfg)
	defer ts.Close()

	_, sr := submit(t, ts, SubmitRequest{Deck: smallThermal(100000)})
	id := sr.Jobs[0].ID
	waitState(t, ts, id, StateRunning)

	resp, err := http.Post(ts.URL+"/v1/drain", "", nil)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("drain: %v HTTP %d", err, resp.StatusCode)
	}
	resp.Body.Close()
	select {
	case <-srv.DrainRequested():
	default:
		t.Fatal("DrainRequested not signalled")
	}
	checkEndpoint(t, ts, "/healthz", `"status": "draining"`)
	checkEndpoint(t, ts, "/metrics", "vpicd_draining 1")
	if resp, _ := submit(t, ts, SubmitRequest{Deck: smallThermal(10)}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: HTTP %d, want 503", resp.StatusCode)
	}
	srv.Close() // the process owner's step: checkpoint-preempt and exit

	var onDisk Job
	b, err := os.ReadFile(srv.spool.jobPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &onDisk); err != nil {
		t.Fatal(err)
	}
	if onDisk.State != StateRunning {
		t.Fatalf("drained job persisted as %s, want running", onDisk.State)
	}
	if _, err := os.Stat(srv.spool.checkpointPath(id)); err != nil {
		t.Fatalf("drained job has no checkpoint: %v", err)
	}

	// Successor (the rolling-restart partner) resumes the backlog.
	lc := &logCollector{}
	cfg2 := cfg
	cfg2.Logf = lc.logf
	srv2, ts2 := startServer(t, spoolDir, cfg2)
	defer ts2.Close()
	defer srv2.Close()
	if j := getStatus(t, ts2, id); j.State.Terminal() {
		t.Fatalf("successor sees %s as %s before resuming", id, j.State)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !lc.contains("resuming at step") {
		if time.Now().After(deadline) {
			t.Fatalf("successor never resumed; log: %v", lc.lines)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRejectedMetric: queue-full 429s are counted on /metrics.
func TestRejectedMetric(t *testing.T) {
	srv, ts := startServer(t, t.TempDir(), Config{Runners: 1, CheckpointEvery: 1000})
	defer ts.Close()
	defer srv.Close()

	_, srA := submit(t, ts, SubmitRequest{Deck: smallThermal(100000)})
	waitState(t, ts, srA.Jobs[0].ID, StateRunning)
	fillQueue(t, ts)
	checkEndpoint(t, ts, "/metrics", "vpicd_jobs_rejected_total 0")
	if resp, _ := submit(t, ts, SubmitRequest{Deck: smallThermal(10)}); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: HTTP %d, want 429", resp.StatusCode)
	}
	checkEndpoint(t, ts, "/metrics", "vpicd_jobs_rejected_total 1")
}

// sseClient collects one job's SSE stream until the state event.
type sseClient struct {
	samples []diag.EnergySample
	state   string
}

func readSSE(t *testing.T, url string, lastEventID int) sseClient {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	if lastEventID >= 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprint(lastEventID))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}
	var out sseClient
	sc := bufio.NewScanner(resp.Body)
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			switch event {
			case "sample":
				var s diag.EnergySample
				if err := json.Unmarshal([]byte(data), &s); err != nil {
					t.Fatalf("bad sample payload %q: %v", data, err)
				}
				out.samples = append(out.samples, s)
			case "state":
				var m map[string]string
				json.Unmarshal([]byte(data), &m)
				out.state = m["state"]
				return out
			}
			event, data = "", ""
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		}
	}
	t.Fatalf("stream ended without a state event (got %d samples)", len(out.samples))
	return out
}

// TestEventsSSE: a live subscriber receives every step-granular sample
// and the terminal state; replays (full and Last-Event-ID-suffix) match
// after completion, including from a successor process.
func TestEventsSSE(t *testing.T) {
	spoolDir := t.TempDir()
	srv, ts := startServer(t, spoolDir, Config{CheckpointEvery: 20, EnergyEvery: 5})
	defer ts.Close()

	_, sr := submit(t, ts, SubmitRequest{Deck: smallThermal(40)})
	id := sr.Jobs[0].ID
	live := readSSE(t, ts.URL+"/v1/jobs/"+id+"/events", -1)
	if live.state != string(StateCompleted) {
		t.Fatalf("live stream ended with state %q", live.state)
	}
	wantSteps := []int{0, 5, 10, 15, 20, 25, 30, 35, 40}
	gotSteps := make([]int, len(live.samples))
	for i, s := range live.samples {
		gotSteps[i] = s.Step
	}
	if !reflect.DeepEqual(gotSteps, wantSteps) {
		t.Fatalf("live stream steps %v, want %v", gotSteps, wantSteps)
	}

	replay := readSSE(t, ts.URL+"/v1/jobs/"+id+"/events", -1)
	if !reflect.DeepEqual(replay.samples, live.samples) {
		t.Fatal("terminal replay differs from the live stream")
	}
	suffix := readSSE(t, ts.URL+"/v1/jobs/"+id+"/events", 20)
	if len(suffix.samples) != 4 || suffix.samples[0].Step != 25 {
		t.Fatalf("Last-Event-ID replay: %d samples from %d", len(suffix.samples), suffix.samples[0].Step)
	}
	if resp, _ := http.Get(ts.URL + "/v1/jobs/job-999999/events"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("events for unknown job: HTTP %d", resp.StatusCode)
	}
	ts.Close()
	srv.Close()

	// A successor process replays a terminal job's stream from the spool.
	srv2, ts2 := startServer(t, spoolDir, Config{CheckpointEvery: 20, EnergyEvery: 5})
	defer ts2.Close()
	defer srv2.Close()
	recovered := readSSE(t, ts2.URL+"/v1/jobs/"+id+"/events", -1)
	if !reflect.DeepEqual(recovered.samples, live.samples) || recovered.state != string(StateCompleted) {
		t.Fatal("successor replay differs from the live stream")
	}
}
