// Package dist runs one rank of a network-distributed simulation: it
// joins the TCP rendezvous, builds this rank's tile (core.RankSim) and
// drives the shared step path, then exchanges end-of-run messages so
// every process holds all ranks' state CRCs and core.RankReports.
// Transport failures surface as attributed errors, never hangs: a comm
// panic raised anywhere in the step is recovered and returned.
package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"govpic/internal/core"
	"govpic/internal/deck"
	"govpic/internal/diag"
	"govpic/internal/mp"
	"govpic/internal/transport"
)

// Report tags live below the domain layer's tag windows (which start at
// 1<<10) and are only used after the last exchange of the run.
const (
	tagReport    = 1
	tagReportAll = 2
)

// Config selects this process's place in the world and the transport
// tuning.
type Config struct {
	Rank   int    // this process's rank
	Ranks  int    // world size
	Join   string // rendezvous address (rank 0 listens here)
	Listen string // this rank's mesh listener ("" = any port)
	// Transport tunes heartbeats and failure detection; zero values use
	// the transport defaults.
	Transport transport.Options
}

// Result is what a completed distributed run leaves on every rank.
type Result struct {
	Rank    int
	Ranks   int
	Steps   int
	CRCs    []uint32          // every rank's state CRC, rank order
	Reports []core.RankReport // every rank's report, rank order
	History diag.History      // global energy history (identical on every rank)
	Wall    time.Duration
}

// endOfRun is the message each rank sends at the end of the run: its
// report and its state CRC (%08x of core's StateCRC).
type endOfRun struct {
	core.RankReport
	CRC string `json:"crc"`
}

// Run executes the deck for the given number of steps as rank c.Rank of
// a c.Ranks world, sampling the global energy every `every` steps.
// logf, when non-nil, receives progress lines.
func Run(dk deck.Deck, steps, every int, c Config, logf func(format string, args ...any)) (res *Result, err error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if c.Ranks < 1 || c.Rank < 0 || c.Rank >= c.Ranks {
		return nil, fmt.Errorf("dist: rank %d outside world of size %d", c.Rank, c.Ranks)
	}
	dk.Cfg.NRanks = c.Ranks

	tr, err := transport.Connect(c.Rank, c.Ranks, c.Join, c.Listen, c.Transport)
	if err != nil {
		return nil, fmt.Errorf("dist: rank %d: %w", c.Rank, err)
	}
	defer tr.Close()
	logf("rank %d/%d connected (join %s)", c.Rank, c.Ranks, c.Join)

	// Everything from here on may panic with an mp.CommError (a peer
	// died, a link overflowed, a protocol mismatch): convert those to
	// clean attributed errors; anything else is a real bug.
	defer func() {
		if p := recover(); p != nil {
			ce, ok := mp.AsCommError(p)
			if !ok {
				panic(p)
			}
			res, err = nil, fmt.Errorf("dist: rank %d: %w", c.Rank, ce)
		}
	}()

	comm := mp.NewComm(tr)
	rs, err := dk.NewRank(comm)
	if err != nil {
		return nil, fmt.Errorf("dist: rank %d: %w", c.Rank, err)
	}

	result := &Result{Rank: c.Rank, Ranks: c.Ranks, Steps: steps}
	result.History.Add(rs.Energy())
	start := time.Now()
	// The signature carries no context; a dead peer ends the run through
	// the transport's failure detector, not through cancellation.
	_ = rs.RunContext(context.TODO(), steps, func(step int) {
		if every > 0 && step%every == 0 {
			result.History.Add(rs.Energy())
		}
	})
	result.Wall = time.Since(start)
	logf("rank %d finished %d steps in %s", c.Rank, steps, result.Wall.Round(time.Millisecond))

	// End-of-run report exchange: gather to rank 0, broadcast the full
	// set, so every process can verify CRC agreement locally.
	comm.Barrier()
	mine := endOfRun{rs.Report(), fmt.Sprintf("%08x", rs.StateCRC())}
	all := make([]endOfRun, c.Ranks)
	if c.Rank == 0 {
		all[0] = mine
		for r := 1; r < c.Ranks; r++ {
			blob := comm.Recv(r, tagReport).([]byte)
			if jerr := json.Unmarshal(blob, &all[r]); jerr != nil {
				return nil, fmt.Errorf("dist: rank %d report: %w", r, jerr)
			}
		}
		blob, _ := json.Marshal(all)
		for r := 1; r < c.Ranks; r++ {
			comm.Send(r, tagReportAll, blob)
		}
	} else {
		blob, _ := json.Marshal(mine)
		comm.Send(0, tagReport, blob)
		blob = comm.Recv(0, tagReportAll).([]byte)
		if jerr := json.Unmarshal(blob, &all); jerr != nil {
			return nil, fmt.Errorf("dist: report broadcast: %w", jerr)
		}
	}
	result.CRCs = make([]uint32, c.Ranks)
	result.Reports = make([]core.RankReport, c.Ranks)
	for r, m := range all {
		if _, serr := fmt.Sscanf(m.CRC, "%08x", &result.CRCs[r]); serr != nil {
			return nil, fmt.Errorf("dist: rank %d sent CRC %q: %w", r, m.CRC, serr)
		}
		result.Reports[r] = m.RankReport
	}
	comm.Barrier() // everyone has the reports before anyone says goodbye
	return result, nil
}
