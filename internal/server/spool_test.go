package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"govpic/internal/core"
)

// TestSpoolScanCorruptJobRecord: one job dir with a corrupted or
// truncated job.json must not prevent recovery of its siblings — a
// single bad record is a skipped job, not a dead worker.
func TestSpoolScanCorruptJobRecord(t *testing.T) {
	dir := t.TempDir()
	srv, ts := startServer(t, dir, Config{})
	_, sr := submit(t, ts, SubmitRequest{
		Deck:  smallThermal(10),
		Sweep: map[string][]float64{"uth": {0.03, 0.05, 0.07}},
	})
	if len(sr.Jobs) != 3 {
		t.Fatalf("sweep expanded to %d jobs, want 3", len(sr.Jobs))
	}
	for _, jr := range sr.Jobs {
		waitState(t, ts, jr.ID, StateCompleted)
	}
	ts.Close()
	srv.Close()

	corruptions := map[string]func(path string){
		sr.Jobs[0].ID: func(p string) { // truncated mid-record
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, b[:len(b)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		sr.Jobs[1].ID: func(p string) { // garbage
			if err := os.WriteFile(p, []byte("not json at all"), 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for id, corrupt := range corruptions {
		corrupt(filepath.Join(dir, id, "job.json"))
	}
	// An empty stray dir must be skipped too.
	if err := os.MkdirAll(filepath.Join(dir, "job-999990"), 0o755); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := startServer(t, dir, Config{})
	defer ts2.Close()
	defer srv2.Close()
	survivor := sr.Jobs[2].ID
	if j := getStatus(t, ts2, survivor); j.State != StateCompleted {
		t.Fatalf("survivor %s recovered as %s, want completed", survivor, j.State)
	}
	for id := range corruptions {
		resp, err := http.Get(ts2.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("corrupted %s: HTTP %d, want 404 (skipped)", id, resp.StatusCode)
		}
	}
}

// TestOldSpoolRecovers: a queued job.json written before the job record
// carried its rank reports (the flattened perf, comm and load keys)
// still recovers, runs to completion and publishes reports.
func TestOldSpoolRecovers(t *testing.T) {
	dir := t.TempDir()
	old := `{
  "id": "job-000007",
  "spec": {"deck": "thermal", "steps": 20, "nx": 16, "ppc": 8, "ranks": 2, "workers": 1},
  "state": "queued",
  "submitted": "2026-01-02T03:04:05Z",
  "progress": {"step": 0, "steps": 20, "particles": 0, "rate_mpart_s": 0},
  "perf": [{"name": "push", "seconds": 0.5, "share": 1, "concurrency": 0, "bytes_moved": 10, "eff_gb_s": 0}],
  "comm_links": [{"src": 0, "peer": 1, "bytes_sent": 8, "msgs_sent": 1, "bytes_recv": 8, "msgs_recv": 1}],
  "comm_traffic": [{"class": "ghostE", "bytes": 8, "msgs": 1}],
  "comm_wait_seconds": 0.1,
  "comm_overlap_seconds": 0.05,
  "per_rank_particles": [10, 12],
  "imbalance_ratio": 1.1
}`
	if err := os.MkdirAll(filepath.Join(dir, "job-000007"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-000007", "job.json"), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, ts := startServer(t, dir, Config{})
	defer ts.Close()
	defer srv.Close()
	j := waitState(t, ts, "job-000007", StateCompleted)
	if len(j.Reports) != 2 || j.Progress.Step != 20 {
		t.Fatalf("recovered job finished at step %d with %d reports, want 20 and 2", j.Progress.Step, len(j.Reports))
	}
	if _, sr := submit(t, ts, SubmitRequest{Deck: smallThermal(10)}); len(sr.Jobs) != 1 || sr.Jobs[0].ID != "job-000008" {
		t.Fatalf("next submit admitted %v, want job-000008", sr.Jobs)
	}
}

// TestV4CheckpointRestartsFromStepZero: a running job spooled with a
// format-v4 checkpoint (J arrays in every payload), a format-v5 one
// (every ghost plane) or a current-format one whose CRC trailer no
// longer matches its bytes is refused by name on recovery —
// dist.ErrRestore — and the job restarts from step 0, ending on the
// uninterrupted run's state CRCs with its whole history.
func TestV4CheckpointRestartsFromStepZero(t *testing.T) {
	spec := smallThermal(20)
	d, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := d.New()
	if err != nil {
		t.Fatal(err)
	}
	core.Collect(sim, (*core.RankSim).Sample)
	sim.Run(10)
	core.Collect(sim, (*core.RankSim).Sample)
	var buf bytes.Buffer
	if err := sim.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	sim.Run(10)
	var want []string
	for _, c := range sim.StateCRCs() {
		want = append(want, fmt.Sprintf("%08x", c))
	}

	// oldMagic is the same bytes under an older magic, CRC trailer
	// redone: only the version tells it apart.
	oldMagic := func(version string) []byte {
		magic := "GOVPIC-CKPT-" + version
		old := append([]byte(magic+"\n"), buf.Bytes()[len(magic)+1:]...)
		binary.LittleEndian.PutUint32(old[len(old)-4:], crc32.ChecksumIEEE(old[:len(old)-4]))
		return old
	}
	// corrupt is the current format with one payload byte flipped and
	// the trailer left as written.
	corrupt := append([]byte{}, buf.Bytes()...)
	corrupt[len(corrupt)/2] ^= 0xff
	for _, tc := range []struct {
		name   string
		ckpt   []byte
		reason string
	}{
		{"v4", oldMagic("4"), `unsupported checkpoint version "GOVPIC-CKPT-4"`},
		{"v5", oldMagic("5"), `unsupported checkpoint version "GOVPIC-CKPT-5"`},
		{"crc", corrupt, "checkpoint corrupt: CRC"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			job := Job{
				ID: "job-000003", Spec: spec, State: StateRunning, Submitted: time.Now(),
				Progress: Progress{Step: 10, Steps: 20}, CheckpointStep: 10,
			}
			rec, _ := json.Marshal(job)
			if err := os.MkdirAll(filepath.Join(dir, job.ID), 0o755); err != nil {
				t.Fatal(err)
			}
			for name, b := range map[string][]byte{"job.json": rec, "state.ckpt": tc.ckpt} {
				if err := os.WriteFile(filepath.Join(dir, job.ID, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			lc := &logCollector{}
			srv, ts := startServer(t, dir, Config{Logf: lc.logf})
			defer ts.Close()
			defer srv.Close()
			waitState(t, ts, job.ID, StateCompleted)
			if !lc.contains(job.ID+" checkpoint unusable") || !lc.contains(tc.reason) ||
				!lc.contains("restarting from step 0") {
				t.Fatalf("%s checkpoint was not refused by name; log: %v", tc.name, lc.lines)
			}
			res := getResult(t, ts, job.ID)
			if got := strings.Join(want, " "); res.StateCRC != got {
				t.Errorf("state_crc %q, want the uninterrupted run's %q", res.StateCRC, got)
			}
			if h := res.History; len(h) == 0 || h[0].Step != 0 || h[len(h)-1].Step != 20 {
				t.Errorf("history %+v, want samples from step 0 to 20", h)
			}
		})
	}
}
