// Command fleetsmoke is the CI acceptance driver for the fleet tier:
// it boots a real vpicfleet coordinator and two real vpicd workers as
// separate processes, submits a two-shard sweep through the federated
// API, SIGKILLs the worker owning shard one once its checkpoint has
// been mirrored, and asserts that every shard still completes — with
// the relocated shard's energy history and final-state CRC
// bit-identical to a clean, unkilled run of the same spec.
//
// Usage (from the repo root):
//
//	go build -o vpicd ./cmd/vpicd
//	go build -o vpicfleet ./cmd/vpicfleet
//	go run ./cmd/fleetsmoke -vpicd ./vpicd -vpicfleet ./vpicfleet
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"syscall"
	"time"

	"govpic/internal/server"
)

var (
	vpicdBin     = flag.String("vpicd", "./vpicd", "path to the vpicd binary")
	vpicfleetBin = flag.String("vpicfleet", "./vpicfleet", "path to the vpicfleet binary")
	steps        = flag.Int("steps", 600, "steps per sweep shard")
	timeout      = flag.Duration("timeout", 3*time.Minute, "overall deadline")
)

func main() {
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("fleetsmoke: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
	log.Print("PASS")
}

// freePort grabs an ephemeral localhost port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// proc is one child process of the smoke fleet.
type proc struct {
	cmd  *exec.Cmd
	base string // HTTP base URL
}

func start(name string, base string, args ...string) (*proc, error) {
	cmd := exec.Command(name, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	return &proc{cmd: cmd, base: base}, nil
}

func (p *proc) kill() {
	if p.cmd.Process != nil {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	}
}

func getJSON(base, path string, v any) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// fleetJob is the coordinator job view the smoke reads.
type fleetJob struct {
	State       string `json:"state"`
	WorkerURL   string `json:"worker_url"`
	MirrorStep  int    `json:"mirror_step"`
	Relocations int    `json:"relocations"`
	Error       string `json:"error"`
}

func run() error {
	deadline := time.Now().Add(*timeout)
	sweepBody := fmt.Sprintf(
		`{"deck":{"deck":"thermal","steps":%d,"nx":32,"ppc":64,"workers":1},"sweep":{"uth":[0.03,0.05]}}`,
		*steps)

	fleetPort, err := freePort()
	if err != nil {
		return err
	}
	fleetBase := fmt.Sprintf("http://127.0.0.1:%d", fleetPort)
	mirror, err := os.MkdirTemp("", "fleetsmoke-mirror-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(mirror)
	coord, err := start(*vpicfleetBin, fleetBase,
		"-addr", fmt.Sprintf("127.0.0.1:%d", fleetPort),
		"-mirror", mirror,
		"-probe-every", "100ms", "-poll-every", "25ms")
	if err != nil {
		return err
	}
	defer coord.kill()

	workers := map[string]*proc{} // base URL → process
	for i := 0; i < 2; i++ {
		port, err := freePort()
		if err != nil {
			return err
		}
		base := fmt.Sprintf("http://127.0.0.1:%d", port)
		spool, err := os.MkdirTemp("", "fleetsmoke-spool-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(spool)
		w, err := start(*vpicdBin, base,
			"-addr", fmt.Sprintf("127.0.0.1:%d", port),
			"-spool", spool,
			"-runners", "1", "-checkpoint-every", "20", "-energy-every", "20",
			"-coordinator", fleetBase, "-advertise", base, "-heartbeat", "500ms")
		if err != nil {
			return err
		}
		defer w.kill()
		workers[base] = w
	}

	// Both workers must register and probe alive before the sweep goes in.
	log.Print("waiting for 2 alive workers")
	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("workers never registered")
		}
		var reg struct {
			Workers []struct {
				State     string `json:"state"`
				QueueFree int    `json:"queue_free"`
			} `json:"workers"`
		}
		alive := 0
		if getJSON(fleetBase, "/v1/workers", &reg) == nil {
			for _, w := range reg.Workers {
				if w.State == "alive" && w.QueueFree > 0 {
					alive++
				}
			}
		}
		if alive == 2 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	resp, err := http.Post(fleetBase+"/v1/jobs", "application/json", strings.NewReader(sweepBody))
	if err != nil {
		return err
	}
	var sub server.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || len(sub.Jobs) != 2 {
		return fmt.Errorf("fleet submit: HTTP %d, jobs %v (%v)", resp.StatusCode, sub.Jobs, err)
	}
	victim := sub.Jobs[0].ID
	log.Printf("sweep submitted: %s + %s", sub.Jobs[0].ID, sub.Jobs[1].ID)

	// Kill the victim's worker — SIGKILL, no drain, no checkpoint-on-exit
	// — once the coordinator has mirrored a checkpoint to relocate from.
	var victimURL string
	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("victim shard never mirrored a checkpoint")
		}
		var v fleetJob
		if err := getJSON(fleetBase, "/v1/jobs/"+victim, &v); err != nil {
			return err
		}
		if v.State == "completed" || v.State == "failed" {
			return fmt.Errorf("victim reached %s before the kill; raise -steps", v.State)
		}
		if v.MirrorStep >= 20 {
			victimURL = v.WorkerURL
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	wp := workers[victimURL]
	if wp == nil {
		return fmt.Errorf("victim worker URL %q unknown", victimURL)
	}
	log.Printf("SIGKILL worker %s (owns %s)", victimURL, victim)
	if err := wp.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		return err
	}
	wp.cmd.Wait()

	// Every shard must still complete, the victim via relocation.
	results := map[string]server.Result{}
	for _, jr := range sub.Jobs {
		for {
			if time.Now().After(deadline) {
				return fmt.Errorf("shard %s never completed", jr.ID)
			}
			var v fleetJob
			if err := getJSON(fleetBase, "/v1/jobs/"+jr.ID, &v); err != nil {
				return err
			}
			if v.State == "completed" {
				break
			}
			if v.State == "failed" {
				return fmt.Errorf("shard %s failed: %s", jr.ID, v.Error)
			}
			time.Sleep(25 * time.Millisecond)
		}
		var res server.Result
		if err := getJSON(fleetBase, "/v1/jobs/"+jr.ID+"/result", &res); err != nil {
			return err
		}
		results[jr.ID] = res
	}
	var v fleetJob
	if err := getJSON(fleetBase, "/v1/jobs/"+victim, &v); err != nil {
		return err
	}
	if v.Relocations < 1 {
		return fmt.Errorf("victim shard reports %d relocations, want >= 1", v.Relocations)
	}
	log.Printf("all shards completed; victim relocated %d time(s)", v.Relocations)

	// Clean control: the same sweep straight onto the surviving worker
	// (expansion order is deterministic, so shard i maps to control i).
	var survivorURL string
	for url := range workers {
		if url != victimURL {
			survivorURL = url
		}
	}
	resp, err = http.Post(survivorURL+"/v1/jobs", "application/json", strings.NewReader(sweepBody))
	if err != nil {
		return err
	}
	var ctl server.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&ctl)
	resp.Body.Close()
	if err != nil || len(ctl.Jobs) != 2 {
		return fmt.Errorf("control submit: HTTP %d (%v)", resp.StatusCode, err)
	}
	for i, jr := range ctl.Jobs {
		for {
			if time.Now().After(deadline) {
				return fmt.Errorf("control job %s never completed", jr.ID)
			}
			var j server.Job
			if err := getJSON(survivorURL, "/v1/jobs/"+jr.ID, &j); err != nil {
				return err
			}
			if j.State == server.StateCompleted {
				break
			}
			if j.State.Terminal() {
				return fmt.Errorf("control job %s reached %s: %s", jr.ID, j.State, j.Error)
			}
			time.Sleep(25 * time.Millisecond)
		}
		var want server.Result
		if err := getJSON(survivorURL, "/v1/jobs/"+jr.ID+"/result", &want); err != nil {
			return err
		}
		got := results[sub.Jobs[i].ID]
		if !reflect.DeepEqual(got.History, want.History) {
			return fmt.Errorf("shard %s: relocated energy history differs from the clean run", sub.Jobs[i].ID)
		}
		if got.StateCRC == "" || got.StateCRC != want.StateCRC {
			return fmt.Errorf("shard %s: state CRC %q != clean run %q", sub.Jobs[i].ID, got.StateCRC, want.StateCRC)
		}
	}
	// The two shards run different uth, so equal CRCs mean the CRC
	// fingerprints nothing.
	if a, b := results[sub.Jobs[0].ID].StateCRC, results[sub.Jobs[1].ID].StateCRC; a == b {
		return fmt.Errorf("shards %s and %s report the same state CRC %q", sub.Jobs[0].ID, sub.Jobs[1].ID, a)
	}
	log.Print("relocated shard is bit-identical to the clean run (history + state CRC)")

	// The relocation must be visible in fleet metrics.
	mresp, err := http.Get(fleetBase + "/metrics")
	if err != nil {
		return err
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	reloc := 0
	for _, line := range strings.Split(string(mb), "\n") {
		fmt.Sscanf(line, "vpicfleet_relocations_total %d", &reloc)
	}
	if reloc < 1 {
		return fmt.Errorf("vpicfleet_relocations_total %d, want >= 1", reloc)
	}
	return nil
}
