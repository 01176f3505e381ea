package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"govpic/internal/deck"
	"govpic/internal/server"
	"govpic/internal/testnet"
)

// TestVpicdSignalRestartBitIdentical runs the real vpicd process: a job
// on a temp spool is interrupted once it has checkpointed, by SIGTERM
// (preempt) or SIGUSR1 (drain); vpicd must exit 0, and a second vpicd
// on the same spool must resume the job and end on the state CRCs and
// energy history of an uninterrupted in-process server run of the same
// spec.
func TestVpicdSignalRestartBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	vpicd := builtCmd(t, "vpicd")
	// A 2-rank job long enough to signal mid-run.
	spec := deck.JSONConfig{Deck: "thermal", Steps: 3000, NX: 32, PPC: 16, Ranks: 2, Workers: 1}
	want := inProcessResult(t, spec)
	for _, tc := range []struct {
		name string
		sig  syscall.Signal
	}{{"SIGTERM", syscall.SIGTERM}, {"SIGUSR1", syscall.SIGUSR1}} {
		t.Run(tc.name, func(t *testing.T) {
			spool := t.TempDir()
			first, url := startVpicd(t, vpicd, spool)
			id := submitJob(t, url, spec)
			for j := jobStatus(t, url, id); j.CheckpointStep == 0; j = jobStatus(t, url, id) {
				if j.State.Terminal() {
					t.Fatalf("job %s before its first checkpoint; enlarge the deck", j.State)
				}
				time.Sleep(2 * time.Millisecond)
			}
			if err := first.cmd.Process.Signal(tc.sig); err != nil {
				t.Fatal(err)
			}
			if err := first.wait(t); err != nil {
				t.Fatalf("vpicd after %s: %v, want exit 0\n%s", tc.name, err, first.log())
			}
			if !strings.Contains(first.log(), "preempted at step") {
				t.Fatalf("vpicd did not preempt the job on %s\n%s", tc.name, first.log())
			}

			second, url := startVpicd(t, vpicd, spool)
			got := waitResult(t, url, id)
			second.cmd.Process.Signal(syscall.SIGTERM)
			if err := second.wait(t); err != nil {
				t.Fatalf("second vpicd: %v\n%s", err, second.log())
			}
			if !strings.Contains(second.log(), id+" resuming at step") {
				t.Fatalf("second vpicd did not resume from the checkpoint\n%s", second.log())
			}
			if got.StateCRC == "" || got.StateCRC != want.StateCRC {
				t.Errorf("state_crc %q, want the uninterrupted run's %q", got.StateCRC, want.StateCRC)
			}
			if !reflect.DeepEqual(got.History, want.History) {
				t.Errorf("history differs from the uninterrupted run's: %d samples, want %d", len(got.History), len(want.History))
			}
		})
	}
}

// vpicdProc is one running vpicd process and its combined output.
type vpicdProc struct {
	cmd    *exec.Cmd
	mu     sync.Mutex
	out    bytes.Buffer
	exited chan struct{}
	err    error // cmd.Wait's, once exited is closed
}

func (p *vpicdProc) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.Write(b)
}

func (p *vpicdProc) log() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// wait returns the process's exit error, failing the test if it has
// not exited within 30 s.
func (p *vpicdProc) wait(t *testing.T) error {
	t.Helper()
	select {
	case <-p.exited:
		return p.err
	case <-time.After(30 * time.Second):
		t.Fatalf("vpicd did not exit\n%s", p.log())
		return nil
	}
}

// startVpicd starts vpicd on spool at a free loopback port with one
// runner, a sample every 10 steps and a checkpoint every 20 (the
// settings of inProcessResult) and returns once /healthz answers.
func startVpicd(t *testing.T, bin, spool string) (*vpicdProc, string) {
	t.Helper()
	addr := testnet.FreeAddr(t)
	p := &vpicdProc{exited: make(chan struct{})}
	p.cmd = exec.Command(bin, "-addr", addr, "-spool", spool,
		"-runners", "1", "-energy-every", "10", "-checkpoint-every", "20")
	p.cmd.Stdout, p.cmd.Stderr = p, p
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { p.err = p.cmd.Wait(); close(p.exited) }()
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		<-p.exited
	})
	url := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		if resp, err := http.Get(url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, url
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("vpicd never answered /healthz\n%s", p.log())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func jobStatus(t *testing.T, url, id string) server.Job {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j server.Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j
}

// submitJob submits spec to the service at url and returns the job ID.
func submitJob(t *testing.T, url string, spec deck.JSONConfig) string {
	t.Helper()
	body, _ := json.Marshal(server.SubmitRequest{Deck: spec})
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub server.SubmitResponse
	json.NewDecoder(resp.Body).Decode(&sub)
	if resp.StatusCode != http.StatusAccepted || len(sub.Jobs) != 1 {
		t.Fatalf("submit: HTTP %d %+v", resp.StatusCode, sub)
	}
	return sub.Jobs[0].ID
}

// waitResult polls job id until it completes and returns its result.
func waitResult(t *testing.T, url, id string) server.Result {
	t.Helper()
	for j := jobStatus(t, url, id); j.State != server.StateCompleted; j = jobStatus(t, url, id) {
		if j.State.Terminal() {
			t.Fatalf("job %s ended %s: %s", id, j.State, j.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Get(url + "/v1/jobs/" + id + "/result")
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

// inProcessResult runs spec to completion on an in-process server with
// startVpicd's settings and returns its result.
func inProcessResult(t *testing.T, spec deck.JSONConfig) server.Result {
	t.Helper()
	srv, err := server.New(server.Config{SpoolDir: t.TempDir(), Runners: 1, EnergyEvery: 10, CheckpointEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	return waitResult(t, ts.URL, submitJob(t, ts.URL, spec))
}
