package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// series is one metric of one workload over the sets of a matrix run.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

func (s *series) add(v float64) {
	s.Values = append(s.Values, v)
	s.Median = median(s.Values)
	s.Q1, s.Q3 = quartiles(s.Values)
}

// resultFile is what a matrix run writes and compare reads.
type resultFile struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Seed        uint64      `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Sets        int         `json:"sets"`
	Attempted   int         `json:"attempted_ops"`
	Failed      int         `json:"failed_ops"`
	// Workloads maps workload name to metric name to its series.
	Workloads map[string]map[string]*series `json:"workloads"`
}

func (r *resultFile) record(workload string, metrics map[string]metric) {
	if r.Workloads[workload] == nil {
		r.Workloads[workload] = map[string]*series{}
	}
	for name, m := range metrics {
		s := r.Workloads[workload][name]
		if s == nil {
			s = &series{Unit: m.Unit}
			r.Workloads[workload][name] = s
		}
		s.add(m.Value)
	}
}

// child re-executes this binary for one workload, so heap state and the
// RSS high-water mark do not leak from one workload into the next. Its
// output is passed through; the last line is the result.
func child(workload string, seed uint64, seconds float64, trace int) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"--workload", workload,
		"--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace))
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: no result line (%v): %w", workload, runErr, err)
	}
	return &res, nil
}

// matrixMain runs every workload, end-to-end pass then traced layer
// pass, `sets` times over, and writes the result file. Odd sets run the
// workloads in reverse order so a drifting host does not favour one.
func matrixMain(seed uint64, seconds float64, sets int, out string) int {
	res := &resultFile{
		Fingerprint: hostFingerprint(), Seed: seed, Seconds: seconds, Sets: sets,
		Workloads: map[string]map[string]*series{},
	}
	for set := 0; set < sets; set++ {
		order := append([]workload(nil), workloads...)
		if set%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		rate := map[string]float64{}
		for _, wl := range order {
			for trace := 0; trace <= 1; trace++ {
				fmt.Printf("== set %d/%d  %s  trace %d\n", set+1, sets, wl.Name, trace)
				// Each set has its own seed, as each of the driver's runs does.
				o, err := child(wl.Name, seed+uint64(set), seconds, trace)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 2
				}
				res.Attempted += o.Attempted
				res.Failed += o.Failed
				res.record(wl.Name, o.Metrics)
				if trace == 0 {
					rate[wl.Name] = o.Metrics["mpart_per_s"].Value
				}
			}
		}
		// Fixed-size scaling at ranks = cores, from the same set.
		eff := rate["thermal.2rank"] / (2 * rate["thermal.1rank"])
		res.record("thermal.2rank", map[string]metric{"scaling_eff": {Value: eff, Unit: "ratio"}})
	}
	printSummary(res)
	b, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.WriteFile(out, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("wrote %s\nfailed_ops %d / attempted_ops %d\n", out, res.Failed, res.Attempted)
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// printSummary prints the end-to-end table: one row per workload and
// gated metric with median, quartiles and spread against the bound.
func printSummary(res *resultFile) {
	fmt.Printf("\n%s\n%-22s %-14s %12s %12s %12s %8s %7s\n", res.Fingerprint,
		"workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			s := res.Workloads[wl.Name][d.Name]
			if s == nil {
				continue
			}
			fmt.Printf("%-22s %-14s %12.5g %12.5g %12.5g %7.2f%% %6.0f%%  %s (n=%d)\n",
				wl.Name, d.Name, s.Median, s.Q1, s.Q3, spread(s.Values)*100, d.Bound*100, s.Unit, len(s.Values))
		}
	}
	if s := res.Workloads["thermal.2rank"]["scaling_eff"]; s != nil {
		fmt.Printf("%-22s %-14s %12.5g %12.5g %12.5g  (reported, not gated)\n",
			"thermal.2rank", "scaling_eff", s.Median, s.Q1, s.Q3)
	}
}
