// Package dist is the one member driver of a run: every world runs
// Member on each rank — Local on the Comms of an in-process mp world,
// Run on the TCP endpoint of one process per rank. A member builds its
// tile (core.RankSim) or resumes it from a checkpoint, steps while
// sampling the global energy and calling the job's AfterStep hook,
// checkpoints, and exchanges every rank's state CRC and
// core.RankReport. Failures are errors on every
// member, never hangs: a comm panic is recovered, and rank 0 hands its
// file errors to peers.
package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"govpic/internal/core"
	"govpic/internal/deck"
	"govpic/internal/diag"
	"govpic/internal/mp"
	"govpic/internal/output"
	"govpic/internal/transport"
)

// The member's tags sit below core's checkpoint tags (1<<9).
const (
	tagReport    = 1
	tagReportAll = 2
	tagVerdict   = 3
)

// Config selects this process's place in a TCP world and the transport
// tuning.
type Config struct {
	Rank   int    // this process's rank
	Ranks  int    // world size
	Join   string // rendezvous address (rank 0 listens here)
	Listen string // this rank's mesh listener ("" = any port)
	// Transport sets the failure-detection timeout every transport
	// timer derives from; the zero value is the 2 s default.
	Transport transport.Options
}

// Job is what a member runs: Steps more steps, sampling the global
// energy at the start when the history is empty and at every step count
// that is a multiple of Every (0: the start only), resuming from the
// checkpoint at Restore — and the history it carries — and writing one
// to Checkpoint when set (rank 0 alone opens either).
// Around, when set, runs rank 0's step loop (cmd/vpic's profiles).
// AfterStep, when set, runs on every member after each step and its
// sample and may call collectives; stop ends the loop, so it must be
// the same on every member (the step number's or a collective's).
type Job struct {
	Steps, Every        int
	Restore, Checkpoint string
	Around              func(loop func())
	AfterStep           func(rs *core.RankSim) (stop bool)
}

// ErrRestore marks a checkpoint the members rejected — unreadable,
// corrupt or another problem's. A rejected file changes no member, so
// a caller may rerun the job fresh.
var ErrRestore = errors.New("checkpoint rejected")

// Result is what a completed run leaves on every member.
type Result struct {
	Rank    int
	Steps   int               // completed steps, counting those before a restore
	CutsX   []int             // the x-plane cuts at the end
	CRCs    []uint32          // every rank's state CRC, rank order
	Reports []core.RankReport // every rank's report, rank order
	History diag.History      // global energy history from step 0, restored samples included (identical on every member)
	Wall    time.Duration     // the step loop
}

// endOfRun is the message each rank sends at the end of the run: its
// report and its state CRC (core's StateCRC).
type endOfRun struct {
	core.RankReport
	CRC uint32 `json:"crc"`
}

// Run executes job as rank c.Rank of a c.Ranks TCP world: it joins the
// rendezvous and runs Member on the mesh endpoint. logf, when non-nil,
// receives progress lines.
func Run(dk deck.Deck, job Job, c Config, logf func(format string, args ...any)) (*Result, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	tr, err := transport.Connect(c.Rank, c.Ranks, c.Join, c.Listen, c.Transport)
	if err != nil {
		return nil, fmt.Errorf("dist: rank %d: %w", c.Rank, err)
	}
	defer tr.Close()
	logf("rank %d/%d connected (join %s)", c.Rank, c.Ranks, c.Join)
	return Member(dk, mp.NewComm(tr), job, logf)
}

// Local runs every rank of the deck's world in this process, each a
// Member on its Comm of one mp world, and returns rank 0's result or
// the lowest rank's error (the members fail together).
func Local(dk deck.Deck, job Job, logf func(format string, args ...any)) (*Result, error) {
	n := dk.Cfg.NRanks
	res, errs := make([]*Result, n), make([]error, n)
	mp.Run(n, func(c *mp.Comm) { res[c.Rank()], errs[c.Rank()] = Member(dk, c, job, logf) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res[0], nil
}

// Member runs job as comm's rank of a world of comm.Size() ranks; every
// rank of the world must call it concurrently. Rank 0 logs its progress
// lines through logf (nil = quiet); the peers are quiet.
func Member(dk deck.Deck, comm *mp.Comm, job Job, logf func(format string, args ...any)) (res *Result, err error) {
	rank := comm.Rank()
	if logf == nil || rank != 0 {
		logf = func(string, ...any) {}
	}
	// Everything from here on may panic with an mp.CommError (a peer
	// died, a link overflowed, a protocol mismatch): convert those to
	// clean attributed errors; anything else is a real bug.
	defer func() {
		if p := recover(); p != nil {
			ce, ok := mp.AsCommError(p)
			if !ok {
				panic(p)
			}
			res, err = nil, fmt.Errorf("dist: rank %d: %w", rank, ce)
		}
	}()

	dk.Cfg.NRanks = comm.Size()
	var rs *core.RankSim
	if job.Restore != "" {
		if rs, err = resume(dk, comm, job.Restore); err != nil {
			return nil, fmt.Errorf("dist: rank %d: %w: %w", rank, ErrRestore, err)
		}
		logf("restored at step %d (t = %.3f), x-cuts %v", rs.StepCount(), rs.Time(), rs.CutsX())
	} else if rs, err = dk.NewRank(comm); err != nil {
		return nil, fmt.Errorf("dist: rank %d: %w", rank, err)
	}
	cfg, particles := rs.Cfg, rs.TotalParticles()
	logf("deck %q: %d cells, %d particles, %d ranks × %d workers, %s kernel, dt = %.4g",
		dk.Name, cfg.NX*cfg.NY*cfg.NZ, particles, cfg.NRanks, cfg.Workers, cfg.Kernel, cfg.DT)

	res = &Result{Rank: rank}
	if len(rs.History.Samples) == 0 {
		rs.Sample()
	}
	first := rs.StepCount()
	loop := func() {
		start := time.Now()
		for i := 0; i < job.Steps; i++ {
			rs.Step()
			if job.Every > 0 && rs.StepCount()%job.Every == 0 {
				rs.Sample()
			}
			if job.AfterStep != nil && job.AfterStep(rs) {
				break
			}
		}
		res.Wall = time.Since(start)
	}
	if job.Around != nil && rank == 0 {
		job.Around(loop)
	} else {
		loop()
	}
	logf("finished %d steps in %s", rs.StepCount()-first, res.Wall.Round(time.Millisecond))
	res.Steps, res.CutsX, res.History = rs.StepCount(), rs.CutsX(), rs.History

	// The report and CRC describe the run, so they are taken before the
	// checkpoint's traffic.
	comm.Barrier()
	mine := endOfRun{rs.Report(), rs.StateCRC()}
	if job.Checkpoint != "" {
		if err := Checkpoint(rs, job.Checkpoint); err != nil {
			return nil, err
		}
		logf("checkpoint written to %s", job.Checkpoint)
	}

	// End-of-run report exchange: every process gets the full set, so
	// each can verify CRC agreement locally.
	all, err := shareJSON(comm, mine)
	if err != nil {
		return nil, fmt.Errorf("dist: rank %d: end-of-run reports: %w", rank, err)
	}
	for _, m := range all {
		res.CRCs = append(res.CRCs, m.CRC)
		res.Reports = append(res.Reports, m.RankReport)
	}
	comm.Barrier() // everyone has the reports before anyone says goodbye
	return res, nil
}

// Reports hands every member every member's cumulative report, in rank
// order — a collective every member calls at the same step.
func Reports(rs *core.RankSim) ([]core.RankReport, error) {
	return shareJSON(rs.Comm(), rs.Report())
}

// shareJSON hands every member every member's v, in rank order: rank 0
// gathers their JSON and broadcasts it joined into one array.
func shareJSON[T any](comm *mp.Comm, v T) ([]T, error) {
	blob, _ := json.Marshal(v) // reports and CRCs always marshal
	if blobs := comm.Gather(tagReport, blob); blobs != nil {
		raw := make([]json.RawMessage, len(blobs))
		for r, b := range blobs {
			raw[r] = b.([]byte)
		}
		blob, _ = json.Marshal(raw) // a malformed blob fails every Unmarshal below
	}
	var all []T
	err := json.Unmarshal(comm.Bcast(tagReportAll, blob).([]byte), &all)
	return all, err
}

// resume builds the member from the checkpoint at path. Rank 0 opens
// it; an open failure still runs the collective, which hands the error
// to every peer.
func resume(dk deck.Deck, comm *mp.Comm, path string) (*core.RankSim, error) {
	var r io.Reader
	if comm.Rank() == 0 {
		f, err := os.Open(path)
		if err != nil {
			return dk.ResumeRank(comm, failed{err})
		}
		defer f.Close()
		r = f
	}
	return dk.ResumeRank(comm, r)
}

// Checkpoint writes the world's checkpoint to path from rank 0,
// atomically, and hands every member rank 0's verdict, so all fail or
// none does — a collective every member calls at the same step. Rank 0
// takes its peers' payloads even when the file could not be created.
func Checkpoint(rs *core.RankSim, path string) error {
	var verdict []byte
	if rs.Comm().Rank() == 0 {
		wrote := false
		err := output.WriteFileAtomic(path, func(w io.Writer) error {
			wrote = true
			return rs.Checkpoint(w)
		})
		if !wrote {
			_ = rs.Checkpoint(failed{err}) // takes the peers' payloads; its error is err
		}
		if err != nil {
			verdict = []byte(err.Error())
		}
	} else {
		_ = rs.Checkpoint(nil) // a peer only sends, which fails by panicking
	}
	if verdict = rs.Comm().Bcast(tagVerdict, verdict).([]byte); len(verdict) > 0 {
		return errors.New(string(verdict))
	}
	return nil
}

// failed stands in for a file rank 0 could not open, so the collective
// still runs and ends in err.
type failed struct{ err error }

func (f failed) Read([]byte) (int, error)  { return 0, f.err }
func (f failed) Write([]byte) (int, error) { return 0, f.err }
