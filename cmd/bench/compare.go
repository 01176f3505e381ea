package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict of one workload × metric row.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// worsening is how far b's median is on the wrong side of a's, as a
// share of a's median (negative when b is better).
func worsening(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge applies the rules of the choosing-metrics guide: a median worse
// by more than the bound is a regression; a spread wider than the bound
// on either side means the pair cannot tell, which is reported as
// unresolved rather than as unchanged.
func judge(d metricDef, a, b *series) (delta float64, verdict string) {
	delta = worsening(d, a.Median, b.Median)
	switch {
	case spread(a.Values) > d.Bound || spread(b.Values) > d.Bound:
		return delta, verdictUnresolved
	case delta > d.Bound:
		return delta, verdictRegression
	}
	return delta, verdictOK
}

// compare prints one row per workload × gated metric and returns how
// many rows are regressions or unresolved.
func compare(w io.Writer, a, b *resultFile) (bad int, err error) {
	if !a.Fingerprint.sameHost(b.Fingerprint) {
		return 0, fmt.Errorf("refusing to compare results from different hosts or builds:\n  A: %s\n  B: %s",
			a.Fingerprint, b.Fingerprint)
	}
	fmt.Fprintf(w, "A: commit %s, %d sets    B: commit %s, %d sets\n",
		a.Fingerprint.Commit, a.Sets, b.Fingerprint.Commit, b.Sets)
	fmt.Fprintf(w, "%-22s %-12s %11s %22s %11s %22s %8s %6s  %s\n",
		"workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "worse by", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			sa, sb := a.Workloads[wl.Name][d.Name], b.Workloads[wl.Name][d.Name]
			if sa == nil || sb == nil {
				fmt.Fprintf(w, "%-22s %-12s missing from A or B\n", wl.Name, d.Name)
				bad++
				continue
			}
			delta, verdict := judge(d, sa, sb)
			if verdict != verdictOK {
				bad++
			}
			fmt.Fprintf(w, "%-22s %-12s %11.5g %10.5g..%-10.5g %11.5g %10.5g..%-10.5g %+7.2f%% %5.0f%%  %s\n",
				wl.Name, d.Name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, delta*100, d.Bound*100, verdict)
		}
	}
	if a.Failed+b.Failed > 0 {
		fmt.Fprintf(w, "failed_ops: A %d, B %d\n", a.Failed, b.Failed)
		bad++
	}
	return bad, nil
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	a, err := loadResult(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadResult(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	bad, err := compare(os.Stdout, a, b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if bad > 0 {
		fmt.Printf("%d rows regressed or unresolved\n", bad)
		return 1
	}
	fmt.Println("no regression, no unresolved row")
	return 0
}
