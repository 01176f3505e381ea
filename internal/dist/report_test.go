package dist

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"govpic/internal/core"
	"govpic/internal/deck"
	"govpic/internal/mp"
	"govpic/internal/perf"
	psort "govpic/internal/sort"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata/")

// deterministic is the part of a report that does not depend on timing:
// it must be identical however the world is hosted.
type deterministic struct {
	Rank, Particles      int
	Pushed, Moved, Flops int64
	SectionBytes         [perf.NumSections]int64
	Classes              string
	Sorts                int64
}

func deterministicOf(r core.RankReport) deterministic {
	classes, _ := json.Marshal(r.Classes)
	return deterministic{r.Rank, r.Particles, r.Pushed, r.Moved, r.Flops,
		r.Bytes, string(classes), r.SortPasses.Sorts}
}

// linkMsgs formats a report's per-link message and byte counts.
func linkMsgs(r core.RankReport) string {
	var s []string
	for _, l := range r.Links {
		s = append(s, fmt.Sprintf("%s sent %d (%d B) recv %d (%d B)", l.Label(), l.MsgsSent, l.BytesSent, l.MsgsRecv, l.BytesRecv))
	}
	return strings.Join(s, "; ")
}

// commRecord is one rank's record in vpic's -comm-json file: its report
// and its state CRC in hex.
type commRecord struct {
	core.RankReport
	CRC string `json:"crc"`
}

// zeroTimes clears a report's time-valued fields, leaving the counters
// that are a function of the deck alone.
func zeroTimes(r core.RankReport) core.RankReport {
	r.Breakdown = perf.Breakdown{Bytes: r.Bytes}
	r.SortPasses = psort.Passes{Sorts: r.SortPasses.Sorts}
	r.Links = append([]perf.CommLinkStat(nil), r.Links...)
	for i := range r.Links {
		r.Links[i].RTT = perf.HistSnapshot{}
		r.Links[i].SpinsExpired = 0
	}
	return r
}

// TestReportsAgreeAcrossWorlds: the per-rank report is one record
// whichever way the world is hosted. Thermal on 2 ranks as a lockstep
// Simulation (its reports gathered by the Reports collective), as
// free-running members under mp.Run and over loopback TCP through Run
// must give identical particles, advances, crossings, flops, section
// bytes, class bytes/msgs and sorts on every rank, and the same member
// run in-process and over TCP must send the same messages and payload
// bytes on every link. The -comm-json records of the lockstep world,
// time-valued fields zeroed, must match testdata/reports.golden.json,
// so dropping or renaming a key fails here; `go test -run
// TestReportsAgreeAcrossWorlds -update` rewrites the file after a
// deliberate change.
func TestReportsAgreeAcrossWorlds(t *testing.T) {
	spec := deck.JSONConfig{Deck: "thermal", NX: 16, PPC: 8, Ranks: 2, Workers: 1, Steps: 25}
	dk, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	ranks := dk.Cfg.NRanks

	sim, err := dk.New()
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(spec.Steps)
	lockstep := core.Collect(sim, func(rs *core.RankSim) []core.RankReport {
		reps, err := Reports(rs)
		if err != nil {
			t.Error(err)
		}
		return reps
	})

	free := make([]core.RankReport, ranks)
	mp.Run(ranks, func(comm *mp.Comm) {
		rs, err := dk.NewRank(comm)
		if err != nil {
			t.Error(err)
			return
		}
		rs.Run(spec.Steps)
		free[comm.Rank()] = rs.Report()
	})
	tcp := runTCPResult(t, spec, ranks).Reports
	local, err := Local(dk, Job{Steps: spec.Steps, Every: spec.Steps}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The collectives run over the links on every world, so the same
	// member run sends the same messages, counted in the same payload
	// bytes, in-process as over TCP.
	for r, rep := range local.Reports {
		if got, want := linkMsgs(tcp[r]), linkMsgs(rep); got != want {
			t.Errorf("rank %d: link messages %s over TCP, %s in-process", r, got, want)
		}
	}

	for _, world := range []struct {
		name string
		reps []core.RankReport
	}{{"free-running", free}, {"TCP", tcp}} {
		if len(world.reps) != ranks {
			t.Fatalf("%s: %d reports, want %d", world.name, len(world.reps), ranks)
		}
		for r := range lockstep {
			if got, want := deterministicOf(world.reps[r]), deterministicOf(lockstep[r]); got != want {
				t.Errorf("rank %d: %s report %+v, lockstep %+v", r, world.name, got, want)
			}
		}
	}
	if tot := core.SumReports(lockstep); tot.SortPasses.Sorts == 0 || tot.Moved == 0 || len(tot.Classes) == 0 {
		t.Fatalf("degenerate run: %d sorts, %d crossings, %d classes", tot.SortPasses.Sorts, tot.Moved, len(tot.Classes))
	}

	msgs := make([]commRecord, ranks)
	for r, crc := range sim.StateCRCs() {
		msgs[r] = commRecord{zeroTimes(lockstep[r]), fmt.Sprintf("%08x", crc)}
	}
	got, err := json.MarshalIndent(msgs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "reports.golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report JSON differs from %s (rerun with -update after a deliberate change):\n%s", golden, got)
	}
}
