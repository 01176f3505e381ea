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

	"govpic/internal/balance"
	"govpic/internal/core"
	"govpic/internal/deck"
	"govpic/internal/diag"
	"govpic/internal/dist"
	"govpic/internal/output"
	"govpic/internal/perf"
)

// report prints rank 0's end-of-run block — energies, state CRCs, the
// perf report and, when balancing, the final x-cuts — and writes the
// requested artifacts atomically: the state-CRC fingerprint CI diffs
// between worlds, the per-rank reports with their CRCs and the energy
// history CSV.
func report(d deck.Deck, res *dist.Result, stateCRC, commJSON, out string) error {
	last := res.History.Samples[len(res.History.Samples)-1]
	fmt.Printf("t = %.3f  field E = %.4g  field B = %.4g  kinetic = %.4g  total = %.4g\n",
		last.Time, last.EField, last.BField, sum(last.Kinetic), last.Total)
	fmt.Printf("relative energy drift: %.3g\n", res.History.RelativeDrift())
	crcs := make([]string, len(res.CRCs))
	recs := make([]commRecord, len(res.CRCs))
	for i, c := range res.CRCs {
		crcs[i] = fmt.Sprintf("%08x", c)
		recs[i] = commRecord{res.Reports[i], crcs[i]}
	}
	fmt.Println("state CRCs:", strings.Join(crcs, " "))
	printReport(res.Reports)
	if d.Cfg.Balance.Mode != balance.Off {
		fmt.Printf("balance %s: x-cuts %v\n", d.Cfg.Balance.Mode, res.CutsX)
	}
	rows := make([][]float64, len(res.History.Samples))
	for i, smp := range res.History.Samples {
		rows[i] = []float64{float64(smp.Step), smp.Time, smp.EField, smp.BField, sum(smp.Kinetic), smp.Total}
	}
	for _, a := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{stateCRC, jsonWriter(stateCRCFile{d.Name, res.Steps, len(crcs), crcs})},
		{commJSON, jsonWriter(recs)},
		{out, func(w io.Writer) error {
			return diag.WriteCSV(w, []string{"step", "time", "efield", "bfield", "kinetic", "total"}, rows)
		}},
	} {
		if a.path == "" {
			continue
		}
		if err := output.WriteFileAtomic(a.path, a.write); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", a.path)
	}
	return nil
}

// stateCRCFile is the -state-crc artifact.
type stateCRCFile struct {
	Deck  string   `json:"deck"`
	Steps int      `json:"steps"`
	Ranks int      `json:"ranks"`
	CRCs  []string `json:"crcs"`
}

// commRecord is one rank's -comm-json entry: its report and its state
// CRC in hex.
type commRecord struct {
	core.RankReport
	CRC string `json:"crc"`
}

// jsonWriter writes v as indented JSON.
func jsonWriter(v any) func(io.Writer) error {
	return func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
}

// printReport writes the end-of-run perf block from the per-rank
// reports alone: section table, sort passes, particle advances and, for
// a decomposed run, the comm tables and the per-rank load.
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
	particles, imbalance := core.RankLoad(reps)
	fmt.Printf("per-rank particles: %v  push imbalance (max/mean): %.3f\n", particles, imbalance)
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
	cmds := make([]*exec.Cmd, n)
	drained := make([]sync.WaitGroup, n) // a child's stdout and stderr read to EOF
	for i := 0; i < n; i++ {
		// A flag's last occurrence wins, so the child's -local-ranks=0
		// overrides this process's.
		args := append(append([]string{}, rawArgs...), "-local-ranks=0",
			"-ranks", strconv.Itoa(n), "-rank", strconv.Itoa(i), "-join", join)
		cmd := exec.Command(exe, args...)
		stdout, err1 := cmd.StdoutPipe()
		stderr, err2 := cmd.StderrPipe()
		if err1 != nil || err2 != nil {
			fmt.Fprintln(os.Stderr, "pipe:", err1, err2)
			return 1
		}
		prefix := fmt.Sprintf("[rank %d] ", i)
		drained[i].Add(2)
		go pipePrefixed(&drained[i], stdout, os.Stdout, prefix)
		go pipePrefixed(&drained[i], stderr, os.Stderr, prefix)
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
		go func(rank int, cmd *exec.Cmd) {
			// Wait closes the pipes, dropping what is unread: the
			// child's last lines (rank 0's report) must be read first.
			drained[rank].Wait()
			exits <- childExit{rank, cmd.Wait()}
		}(i, cmd)
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
