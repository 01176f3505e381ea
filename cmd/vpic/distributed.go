package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"govpic/internal/balance"
	"govpic/internal/core"
	"govpic/internal/deck"
	"govpic/internal/diag"
	"govpic/internal/dist"
	"govpic/internal/output"
	"govpic/internal/perf"
	"govpic/internal/transport"
)

// distFlags carries the distributed-mode command line.
type distFlags struct {
	rank, ranks  int
	join, listen string
	heartbeat    time.Duration
	peerTimeout  time.Duration
	steps, every int
	out          string // energy CSV (rank 0)
	stateCRC     string // state fingerprint JSON (rank 0)
	commJSON     string // per-rank comm stats JSON (rank 0)
}

// runDistributed executes this process's rank of a TCP-distributed run
// and, on rank 0, emits the run summary and requested artifacts.
func runDistributed(d deck.Deck, fl distFlags) error {
	logf := func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	}
	topts := transport.Options{
		HeartbeatInterval: fl.heartbeat,
		PeerTimeout:       fl.peerTimeout,
	}
	if fl.peerTimeout > 0 {
		// -peer-timeout is the one failure-detection knob: scale the
		// reconnect budget with it so a tightened timeout bounds the whole
		// time-to-detection, not just the read deadline.
		topts.DialTimeout = fl.peerTimeout
		topts.ReconnectBackoff = fl.peerTimeout / 8
		topts.ConnectAttempts = 4
	}
	res, err := dist.Run(d, fl.steps, fl.every, dist.Config{
		Rank:      fl.rank,
		Ranks:     fl.ranks,
		Join:      fl.join,
		Listen:    fl.listen,
		Transport: topts,
	}, logf)
	if err != nil {
		return err
	}
	if fl.rank != 0 {
		return nil
	}
	last := res.History.Samples[len(res.History.Samples)-1]
	fmt.Printf("t = %.3f  field E = %.4g  field B = %.4g  kinetic = %.4g  total = %.4g\n",
		last.Time, last.EField, last.BField, sum(last.Kinetic), last.Total)
	fmt.Printf("relative energy drift: %.3g\n", res.History.RelativeDrift())
	fmt.Printf("state CRCs:")
	for _, c := range res.CRCs {
		fmt.Printf(" %08x", c)
	}
	fmt.Println()
	printReport(res.Reports)
	if fl.stateCRC != "" {
		if err := writeStateCRCFile(fl.stateCRC, d.Name, res.Steps, res.Ranks, res.CRCs); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", fl.stateCRC)
	}
	if fl.commJSON != "" {
		if err := writeCommJSON(fl.commJSON, res.Reports, res.CRCs); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", fl.commJSON)
	}
	if fl.out != "" {
		if err := writeEnergyCSV(fl.out, &res.History); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", fl.out)
	}
	return nil
}

// stateCRCFile is the artifact the CI smoke test diffs between the
// in-process and TCP runs; both paths must produce identical bytes for
// identical state.
type stateCRCFile struct {
	Deck  string   `json:"deck"`
	Steps int      `json:"steps"`
	Ranks int      `json:"ranks"`
	CRCs  []string `json:"crcs"`
}

func writeStateCRCFile(path, deckName string, steps, ranks int, crcs []uint32) error {
	rec := stateCRCFile{Deck: deckName, Steps: steps, Ranks: ranks}
	for _, c := range crcs {
		rec.CRCs = append(rec.CRCs, fmt.Sprintf("%08x", c))
	}
	return output.WriteFileAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rec)
	})
}

// commRecord is one rank's -comm-json entry: its report and state CRC,
// the shape of the end-of-run message a distributed run exchanges.
type commRecord struct {
	core.RankReport
	CRC string `json:"crc"`
}

// writeCommJSON writes the per-rank reports with their state CRCs; both
// run paths write it from the same reports, so the artifacts compare.
func writeCommJSON(path string, reps []core.RankReport, crcs []uint32) error {
	recs := make([]commRecord, len(reps))
	for i, r := range reps {
		recs[i] = commRecord{r, fmt.Sprintf("%08x", crcs[i])}
	}
	return output.WriteFileAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(recs)
	})
}

// writeEnergyCSV writes the energy history both run paths print from;
// like every other artifact it is written atomically, so a failed write
// or close is an error and never leaves a truncated file.
func writeEnergyCSV(path string, hist *diag.History) error {
	rows := make([][]float64, len(hist.Samples))
	for i, smp := range hist.Samples {
		rows[i] = []float64{float64(smp.Step), smp.Time, smp.EField, smp.BField, sum(smp.Kinetic), smp.Total}
	}
	return output.WriteFileAtomic(path, func(w io.Writer) error {
		return diag.WriteCSV(w, []string{"step", "time", "efield", "bfield", "kinetic", "total"}, rows)
	})
}

// printReport writes the end-of-run perf block the in-process and
// distributed paths share, from the per-rank reports alone: section
// table, sort passes, particle advances and, for a decomposed run, the
// comm tables and the per-rank load.
func printReport(reps []core.RankReport) {
	tot := core.SumReports(reps)
	fmt.Print(tot.Breakdown.Report())
	sp := tot.SortPasses
	if t := sp.CountSeconds + sp.MergeSeconds + sp.ScatterSeconds; t > 0 {
		fmt.Printf("sort passes: count %4.1f%%  merge %4.1f%%  scatter %4.1f%%  (%d sorts, %.3fs)\n",
			100*sp.CountSeconds/t, 100*sp.MergeSeconds/t, 100*sp.ScatterSeconds/t, sp.Sorts, t)
	}
	fmt.Printf("advances: %d pushed  %d moved  %d flops\n", tot.Pushed, tot.Moved, tot.Flops)
	if len(reps) < 2 {
		return
	}
	if len(tot.Links) > 0 {
		fmt.Print("comm links:\n", perf.CommReport(tot.Links))
	}
	if len(tot.Classes) > 0 {
		fmt.Println("comm traffic by class:")
		fmt.Printf("  %-12s %14s %10s\n", "class", "bytes", "msgs")
		for _, c := range tot.Classes {
			fmt.Printf("  %-12s %14d %10d\n", c.Class, c.Bytes, c.Msgs)
		}
	}
	particles, imbalance := rankLoad(reps)
	fmt.Printf("per-rank particles: %v  push imbalance (max/mean): %.3f\n", particles, imbalance)
}

// rankLoad returns each rank's resident particle count and the max/mean
// of the ranks' cumulative push seconds.
func rankLoad(reps []core.RankReport) ([]int, float64) {
	particles := make([]int, len(reps))
	push := make([]float64, len(reps))
	for i := range reps {
		particles[i] = reps[i].Particles
		push[i] = reps[i].Elapsed(perf.Push).Seconds()
	}
	return particles, balance.MaxOverMean(push)
}

// launchLocal forks n child processes of this binary, one per rank, on
// a fresh localhost rendezvous port, prefixing each child's output with
// its rank. Any child failing kills the rest. Returns the exit code.
func launchLocal(n int, rawArgs []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	join, err := freeLocalAddr()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	base := stripFlag(rawArgs, "local-ranks")
	cmds := make([]*exec.Cmd, n)
	var pipes sync.WaitGroup
	for i := 0; i < n; i++ {
		args := append(append([]string{}, base...),
			"-ranks", strconv.Itoa(n), "-rank", strconv.Itoa(i), "-join", join)
		cmd := exec.Command(exe, args...)
		stdout, err1 := cmd.StdoutPipe()
		stderr, err2 := cmd.StderrPipe()
		if err1 != nil || err2 != nil {
			fmt.Fprintln(os.Stderr, "pipe:", err1, err2)
			return 1
		}
		prefix := fmt.Sprintf("[rank %d] ", i)
		pipes.Add(2)
		go pipePrefixed(&pipes, stdout, os.Stdout, prefix)
		go pipePrefixed(&pipes, stderr, os.Stderr, prefix)
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "starting rank %d: %v\n", i, err)
			killAll(cmds)
			return 1
		}
		cmds[i] = cmd
	}
	type childExit struct {
		rank int
		err  error
	}
	exits := make(chan childExit, n)
	for i, cmd := range cmds {
		go func(rank int, cmd *exec.Cmd) { exits <- childExit{rank, cmd.Wait()} }(i, cmd)
	}
	code := 0
	for range cmds {
		e := <-exits
		if e.err != nil {
			fmt.Fprintf(os.Stderr, "rank %d failed: %v\n", e.rank, e.err)
			if code == 0 {
				code = 1
				killAll(cmds)
			}
		}
	}
	pipes.Wait()
	return code
}

func killAll(cmds []*exec.Cmd) {
	for _, c := range cmds {
		if c != nil && c.Process != nil {
			c.Process.Kill()
		}
	}
}

func pipePrefixed(wg *sync.WaitGroup, r io.Reader, w io.Writer, prefix string) {
	defer wg.Done()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		fmt.Fprintf(w, "%s%s\n", prefix, sc.Text())
	}
}

// freeLocalAddr reserves a localhost port by binding and releasing it.
func freeLocalAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// stripFlag removes every occurrence of -name/--name (with a separate
// or attached value) from args.
func stripFlag(args []string, name string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		trimmed := strings.TrimLeft(a, "-")
		if trimmed == name {
			i++ // skip the value
			continue
		}
		if strings.HasPrefix(trimmed, name+"=") && strings.HasPrefix(a, "-") {
			continue
		}
		out = append(out, a)
	}
	return out
}
