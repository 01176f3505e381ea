package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"govpic/internal/deck"
	"govpic/internal/server"
)

// Sweep shape: a closed loop — each client submits one job and waits for
// its terminal state before submitting the next — so a slower service
// receives less load. One runner serves the queue.
const (
	sweepClients    = 2
	sweepCheckpoint = 50
	pollEvery       = 2 * time.Millisecond
)

// service is an in-process vpicd: the server behind an httptest
// listener over a temporary spool under the benchmark's output
// directory.
type service struct {
	srv   *server.Server
	http  *httptest.Server
	spool string
}

func startService() (*service, error) {
	spool, err := os.MkdirTemp(outDir, "spool-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{SpoolDir: spool, Runners: 1, CheckpointEvery: sweepCheckpoint})
	if err != nil {
		os.RemoveAll(spool)
		return nil, err
	}
	s := &service{srv: srv, http: httptest.NewServer(srv.Handler()), spool: spool}
	// Started means answering: the readiness probe an operator would send.
	var health map[string]any
	if err := getJSON(s.http.URL+"/healthz", &health); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *service) close() {
	s.http.Close()
	s.srv.Close()
	os.RemoveAll(s.spool)
}

// jobRun is one job as its client saw it.
type jobRun struct {
	submitMs float64
	latency  float64 // seconds, submit to observed terminal state
	final    server.Job
	crc      string
	err      error
}

// runJob submits spec and polls its status until a terminal state.
func (s *service) runJob(spec deck.JSONConfig) (run jobRun) {
	body, err := json.Marshal(server.SubmitRequest{Deck: spec})
	if err != nil {
		run.err = err
		return run
	}
	t0 := time.Now()
	resp, err := http.Post(s.http.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		run.err = err
		return run
	}
	var sub server.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	run.submitMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil || resp.StatusCode != http.StatusAccepted || len(sub.Jobs) != 1 {
		run.err = fmt.Errorf("submit: status %d, %d jobs, %v", resp.StatusCode, len(sub.Jobs), err)
		return run
	}
	url := s.http.URL + sub.Jobs[0].URL
	for !run.final.State.Terminal() {
		time.Sleep(pollEvery)
		if run.err = getJSON(url, &run.final); run.err != nil {
			return run
		}
	}
	run.latency = time.Since(t0).Seconds()
	var res server.Result
	if run.err = getJSON(url+"/result", &res); run.err == nil {
		run.crc = res.StateCRC
	}
	return run
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// sweepResult is the closed loop's measurement.
type sweepResult struct {
	runs []jobRun
	wall float64 // seconds
}

// runLoop drives the closed loop over specs with sweepClients clients;
// job i's result lands in runs[i] whichever client ran it.
func (s *service) runLoop(specs []deck.JSONConfig, tr *tracer, parent int) sweepResult {
	res := sweepResult{runs: make([]jobRun, len(specs))}
	next := make(chan int, len(specs))
	for i := range specs {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < sweepClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range next {
				id := tr.begin(fmt.Sprintf("job %d", i), parent, 1+c)
				res.runs[i] = s.runJob(specs[i])
				tr.end(id)
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start).Seconds()
	return res
}

// runSweep measures vpicd.sweep: the end-to-end metrics without a
// tracer; with one, the server's per-layer metrics plus the layer pass
// on a bare simulation of the job deck.
func runSweep(wl *workload, seed uint64, seconds float64, tr *tracer, tl *tally) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	n := wl.units(seconds)
	warm := make([]deck.JSONConfig, sweepClients)
	for i := range warm {
		warm[i] = sweepJob(rng, seconds)
	}
	specs := make([]deck.JSONConfig, n)
	for i := range specs {
		specs[i] = sweepJob(rng, seconds)
	}

	t0 := time.Now()
	svc, err := startService()
	if err != nil {
		return nil, err
	}
	firstSetup := time.Since(t0).Seconds()
	defer svc.close()

	for _, r := range svc.runLoop(warm, nil, -1).runs {
		if r.err != nil {
			return nil, fmt.Errorf("warm-up job: %w", r.err)
		}
	}
	root := tr.begin("timed-loop", -1, 0)
	res := svc.runLoop(specs, tr, root)
	tr.end(root)

	st := tallySweep(res, tl)
	lat, partSteps := st.latency, st.partSteps
	if len(lat) == 0 {
		return nil, fmt.Errorf("no job completed")
	}
	jobsPerS := float64(len(lat)) / res.wall
	mpart := partSteps / res.wall / 1e6
	p50 := median(lat)
	steps := float64(specs[0].Steps)
	fmt.Printf("%s: %d jobs of %d steps, %d clients (closed loop), 1 runner, seed %d\n",
		wl.Name, n, specs[0].Steps, sweepClients, seed)
	fmt.Printf("  timed loop: %.3f s, %.4f jobs/s, %.4f Mpart/s, job latency p50 %.4f s (n=%d)\n",
		res.wall, jobsPerS, mpart, p50, len(lat))
	fmt.Printf("  CRC over the jobs' state CRCs in submission order: %08x\n", st.crc)

	if tr == nil {
		// step_ms_p50 is the client-visible cost of one simulated step
		// through the service.
		return endToEndVals(mpart, p50*1e3/steps, firstSetup, seconds, svc, func() (func(), error) {
			s2, err := startService()
			if err != nil {
				return nil, err
			}
			return s2.close, nil
		})
	}
	vals := map[string]float64{}

	// Per-layer: the bare core run of one job's deck in this process is
	// both the layer pass's subject and the baseline of server.overhead_ms.
	w, d, err := serverLayer(st, jobsPerS, specs[0], vals)
	if err != nil {
		return nil, err
	}
	_, tailS := tail(lat)
	vals["step_ms_tail"] = tailS * 1e3 / steps
	// The layer table's loop is a short traced loop on the bare world.
	loop := timedLoop(w, specs[0].Steps, tr, root, tl)
	stepMs := median(loop.stepMs)
	vals["trace_overhead_pct"] = loop.traceOverhead
	loopMetrics(w, &loop, vals)
	if err := layerPass(w, w.sim, d, stepMs, tr, tl, vals); err != nil {
		return nil, err
	}
	return vals, nil
}

// sweepStats condenses a closed loop's completed jobs.
type sweepStats struct {
	latency, submitMs []float64
	partSteps         float64
	ckptWrites        int
	crc               uint32 // over the jobs' state CRCs in submission order
}

// tallySweep checks every job (completed, attestation passing) and
// gathers the completed ones' numbers.
func tallySweep(res sweepResult, tl *tally) sweepStats {
	var st sweepStats
	h := crc32.NewIEEE()
	for i, r := range res.runs {
		ok := r.err == nil && r.final.State == server.StateCompleted
		tl.check(ok, "job %d: state %q, error %q, %v", i, r.final.State, r.final.Error, r.err)
		if !ok {
			continue
		}
		tl.check(r.final.Physics != nil && r.final.Physics.Pass, "job %d: physics attestation %+v", i, r.final.Physics)
		st.latency = append(st.latency, r.latency)
		st.submitMs = append(st.submitMs, r.submitMs)
		st.partSteps += float64(r.final.Progress.Particles) * float64(r.final.Progress.Step)
		// Every multiple of the interval below the last step was written.
		st.ckptWrites += r.final.CheckpointStep / sweepCheckpoint
		h.Write([]byte(r.crc))
	}
	st.crc = h.Sum32()
	return st
}

// serverLayer fills the server.* metrics from a measured loop and runs
// the bare core baseline: build the job's deck and step it to the end
// in this process, with no service around it. It returns the last bare
// world for the layer pass.
func serverLayer(st sweepStats, jobsPerS float64, spec deck.JSONConfig, vals map[string]float64) (*world, deck.Deck, error) {
	d, err := spec.Build()
	if err != nil {
		return nil, d, err
	}
	var bare []float64
	var w *world
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if w, err = buildSim(d); err != nil {
			return nil, d, err
		}
		w.sim.Run(spec.Steps)
		bare = append(bare, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	bareMs := median(bare)
	vals["server.submit_ms"] = median(st.submitMs)
	vals["server.job_s_p50"] = median(st.latency)
	vals["server.jobs_per_s"] = jobsPerS
	// One runner is the bottleneck of the closed loop, so wall/jobs is its
	// service time per job; what exceeds the bare run is the service's own
	// cost (spool writes, checkpoints, energy sampling, status reads).
	vals["server.overhead_ms"] = 1e3/jobsPerS - bareMs
	vals["server.checkpoint_writes"] = float64(st.ckptWrites) / float64(len(st.latency))
	fmt.Printf("  server: service time %.2f ms/job, bare core run of the job deck %.2f ms\n", 1e3/jobsPerS, bareMs)
	return w, d, nil
}

// serverProbe gives the simulation workloads their server.* numbers: a
// short closed loop of the sweep's jobs, so a core change's effect on
// the service shows beside the workload it was aimed at.
func serverProbe(seed uint64, seconds float64, tr *tracer, tl *tally, vals map[string]float64) error {
	id := tr.begin("server.probe", -1, 0)
	defer tr.end(id)
	rng := rand.New(rand.NewSource(int64(seed)))
	specs := make([]deck.JSONConfig, 2+4)
	for i := range specs {
		specs[i] = sweepJob(rng, seconds)
	}
	svc, err := startService()
	if err != nil {
		return err
	}
	defer svc.close()
	svc.runLoop(specs[:2], nil, -1) // warm-up
	res := svc.runLoop(specs[2:], tr, id)
	st := tallySweep(res, tl)
	if len(st.latency) == 0 {
		return fmt.Errorf("server probe: no job completed")
	}
	_, _, err = serverLayer(st, float64(len(st.latency))/res.wall, specs[2], vals)
	return err
}
