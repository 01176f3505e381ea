package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"govpic/internal/push"
)

// fingerprint identifies the host and build a result was measured on.
// compare refuses two results whose fingerprints differ in anything but
// the commit: a number from another machine is not a baseline.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"push_kernel"` // resolved: "asm" or "go"
	Commit     string `json:"commit"`
}

// sameHost reports whether two results are comparable.
func (f fingerprint) sameHost(o fingerprint) bool {
	f.Commit, o.Commit = "", ""
	return f == o
}

func (f fingerprint) String() string {
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, %s, push kernel %s, commit %s",
		f.CPU, f.NProc, f.GOMAXPROCS, f.Go, f.Kernel, f.Commit)
}

// maxProcs is the thread budget of a run: the reference host has two
// cores, and no workload uses more ranks × workers than that.
func maxProcs() int { return min(runtime.NumCPU(), 2) }

func hostFingerprint() fingerprint {
	kernel, err := push.ResolveKernel("")
	if err != nil {
		kernel = "unresolved: " + err.Error()
	}
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     kernel,
		Commit:     commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the checkout when it is a git work tree; the PR driver
// runs the benchmark from a plain copy, where it reads "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// residentMB returns the process's resident set after a forced
// collection that returns freed pages to the system — what the built
// world and its scratch occupy — and the high-water mark (VmHWM). Only
// the first is gated: the peak has two modes 5-12% apart, a race between
// the loaders' append growth and the concurrent collector.
func residentMB() (live, peak float64, err error) {
	debug.FreeOSMemory()
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, 0, err
	}
	field := func(key string) (float64, error) {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, key); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err != nil {
					return 0, fmt.Errorf("%s %q: %w", key, rest, err)
				}
				return kb / 1024, nil
			}
		}
		return 0, fmt.Errorf("no %s in /proc/self/status", key)
	}
	if live, err = field("VmRSS:"); err != nil {
		return 0, 0, err
	}
	peak, err = field("VmHWM:")
	return live, peak, err
}
