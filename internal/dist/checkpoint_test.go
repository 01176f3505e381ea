package dist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"govpic/internal/core"
	"govpic/internal/deck"
	"govpic/internal/diag"
	"govpic/internal/mp"
	"govpic/internal/output"
)

// spikeSpec is CI's balance smoke on 2 ranks: online balancing moves
// the x-cuts off uniform well before step 20.
var spikeSpec = deck.JSONConfig{Deck: "spike", NX: 32, PPC: 8, Ranks: 2, Workers: 1, Steps: 40,
	Balance: "online", BalanceInterval: 2, BalanceThreshold: 1.15}

// history is a lockstep world's energy history (every member's is the
// same).
func history(sim *core.Simulation) diag.History {
	return core.Collect(sim, func(rs *core.RankSim) diag.History { return rs.History })
}

// runSampled steps sim n times under Member's sampling rule: at the
// start when the history is empty, then at every multiple of every.
func runSampled(sim *core.Simulation, n, every int) {
	if len(history(sim).Samples) == 0 {
		core.Collect(sim, (*core.RankSim).Sample)
	}
	for i := 0; i < n; i++ {
		sim.Step()
		if sim.StepCount()%every == 0 {
			core.Collect(sim, (*core.RankSim).Sample)
		}
	}
}

// runMembers runs job as an in-process world of Members and returns
// rank 0's result.
func runMembers(t *testing.T, dk deck.Deck, job Job) *Result {
	t.Helper()
	res := make([]*Result, dk.Cfg.NRanks)
	errs := make([]error, dk.Cfg.NRanks)
	waitOrHang(t, func() {
		mp.Run(dk.Cfg.NRanks, func(c *mp.Comm) { res[c.Rank()], errs[c.Rank()] = Member(dk, c, job, nil) })
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return res[0]
}

// TestCheckpointCrossesWorlds: a checkpoint is the world's, not its
// host's, and it carries the run's history. On the balanced spike deck,
// a file written at step 20 by a 2-rank loopback-TCP world resumes on
// in-process members, and a file an in-process Simulation wrote
// resumes on a TCP world; both reach the uninterrupted run's CRCs and
// energy history at step 40. So do a checkpoint at step 0 and one at step 25, off the
// sampling cadence: a resume takes no extra or duplicate sample. On 3
// ranks, where every handoff to and from rank 0 has two peers, a
// restore, 10 steps and a checkpoint write the same file, CRCs and
// per-link traffic in-process as over TCP.
func TestCheckpointCrossesWorlds(t *testing.T) {
	dk, err := spikeSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	full, err := dk.New()
	if err != nil {
		t.Fatal(err)
	}
	uniform := core.Collect(full, (*core.RankSim).CutsX)
	runSampled(full, 40, 10)
	want, wantHist := full.StateCRCs(), history(full)
	dir := t.TempDir()

	fromTCP := filepath.Join(dir, "tcp.ckpt")
	results, errs := runTCPJob(t, spikeSpec, 2, Job{Steps: 20, Every: 10, Checkpoint: fromTCP})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("TCP rank %d: %v", r, err)
		}
	}
	if slices.Equal(results[0].CutsX, uniform) {
		t.Fatalf("the balancer never moved the cuts by step 20: %v", results[0].CutsX)
	}
	res := runMembers(t, dk, Job{Steps: 20, Every: 10, Restore: fromTCP})
	if !slices.Equal(res.CRCs, want) {
		t.Errorf("TCP → in-process: CRCs %08x, uninterrupted %08x", res.CRCs, want)
	}
	if !reflect.DeepEqual(res.History, wantHist) {
		t.Errorf("TCP → in-process: history %+v, uninterrupted %+v", res.History, wantHist)
	}

	half, err := dk.New()
	if err != nil {
		t.Fatal(err)
	}
	runSampled(half, 20, 10)
	fromSim := filepath.Join(dir, "sim.ckpt")
	if err := output.WriteFileAtomic(fromSim, half.Checkpoint); err != nil {
		t.Fatal(err)
	}
	results, errs = runTCPJob(t, spikeSpec, 2, Job{Steps: 20, Every: 10, Restore: fromSim})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("TCP rank %d: %v", r, err)
		}
	}
	if got := results[0].CRCs; results[0].Steps != 40 || !slices.Equal(got, want) {
		t.Errorf("in-process → TCP: step %d, CRCs %08x; uninterrupted step 40, %08x", results[0].Steps, got, want)
	}
	if !reflect.DeepEqual(results[0].History, wantHist) {
		t.Errorf("in-process → TCP: history %+v, uninterrupted %+v", results[0].History, wantHist)
	}

	spec3 := spikeSpec
	spec3.Ranks = 3
	dk3, err := spec3.Build()
	if err != nil {
		t.Fatal(err)
	}
	at10 := filepath.Join(dir, "three.ckpt")
	runMembers(t, dk3, Job{Steps: 10, Every: 10, Checkpoint: at10})
	job := Job{Steps: 10, Every: 10, Restore: at10, Checkpoint: filepath.Join(dir, "three-local.ckpt")}
	local := runMembers(t, dk3, job)
	job.Checkpoint = filepath.Join(dir, "three-tcp.ckpt")
	results, errs = runTCPJob(t, spec3, 3, job)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("3-rank TCP rank %d: %v", r, err)
		}
	}
	tcp := results[0]
	if !slices.Equal(tcp.CRCs, local.CRCs) {
		t.Errorf("3 ranks: CRCs %08x over TCP, %08x in-process", tcp.CRCs, local.CRCs)
	}
	for r := range local.Reports {
		if got, want := linkMsgs(tcp.Reports[r]), linkMsgs(local.Reports[r]); got != want {
			t.Errorf("3 ranks, rank %d: link messages %s over TCP, %s in-process", r, got, want)
		}
	}
	a, errA := os.ReadFile(filepath.Join(dir, "three-local.ckpt"))
	b, errB := os.ReadFile(job.Checkpoint)
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Errorf("3 ranks: the checkpoints differ (%d B in-process, %d B over TCP; %v, %v)", len(a), len(b), errA, errB)
	}

	for _, at := range []int{0, 25} {
		path := filepath.Join(dir, fmt.Sprintf("at%d.ckpt", at))
		runMembers(t, dk, Job{Steps: at, Every: 10, Checkpoint: path})
		res := runMembers(t, dk, Job{Steps: 40 - at, Every: 10, Restore: path})
		if !slices.Equal(res.CRCs, want) || !reflect.DeepEqual(res.History, wantHist) {
			t.Errorf("resumed at step %d: CRCs %08x, %d samples; uninterrupted %08x, %d samples",
				at, res.CRCs, len(res.History.Samples), want, len(wantHist.Samples))
		}
	}
}

// TestFileFailuresFailEveryRank: a checkpoint rank 0 cannot write —
// its directory is missing, or the path is a directory so the final
// rename fails — and a restore from a missing file fail every rank with
// rank 0's error, in-process (Member on an mp world) and over TCP, and
// hang none.
func TestFileFailuresFailEveryRank(t *testing.T) {
	spec := deck.JSONConfig{Deck: "thermal", NX: 16, PPC: 8, Ranks: 2, Workers: 1, Steps: 2}
	dk, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		job  Job
		want string
	}{
		{"checkpoint into a missing directory", Job{Steps: 2, Checkpoint: filepath.Join(dir, "missing", "x.ckpt")}, "no such file"},
		{"checkpoint onto a directory", Job{Steps: 2, Checkpoint: dir}, "atomic write"},
		{"restore from a missing file", Job{Steps: 2, Restore: filepath.Join(dir, "absent.ckpt")}, "no such file"},
	} {
		inProcess := make([]error, 2)
		waitOrHang(t, func() {
			mp.Run(2, func(c *mp.Comm) { _, inProcess[c.Rank()] = Member(dk, c, tc.job, nil) })
		})
		_, tcp := runTCPJob(t, spec, 2, tc.job)
		for world, errs := range map[string][]error{"in-process": inProcess, "TCP": tcp} {
			for r, err := range errs {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s, %s rank %d: err = %v, want %q", tc.name, world, r, err, tc.want)
				}
			}
		}
	}
}

// wallDeck is a 1-D LPI slab whose plasma reaches its reflux walls:
// half a c/ω0 of vacuum and of ramp at each end of a 10 c/ω0 plateau,
// at Te 0.008 and 16 electrons per cell.
func wallDeck(t *testing.T, ranks, workers int) deck.Deck {
	t.Helper()
	p := deck.DefaultLPI(0.05)
	p.VacuumLength, p.RampLength, p.PlateauLength = 0.5, 0.5, 10
	p.Te, p.PPC, p.NRanks, p.RefluxWalls = 0.008, 16, ranks, true
	dk, err := deck.LPI(p)
	if err != nil {
		t.Fatal(err)
	}
	dk.Cfg.Workers = workers
	return dk
}

// TestRefluxWallsResumeExactly: a reflux wall's draws are keyed by what
// a checkpoint restores (species, face and step), so on wallDeck a run
// checkpointed at step 100 and resumed reaches the uninterrupted run's
// CRCs at step 200: on 1 rank at 1, 2 and 8 workers, and on 2 ranks in
// process and over TCP. With absorbing walls the deck loses particles
// in both halves, so its walls are reached before and after the
// checkpoint.
func TestRefluxWallsResumeExactly(t *testing.T) {
	absorbing := wallDeck(t, 1, 1)
	absorbing.Setup = nil
	var counts []int
	runMembers(t, absorbing, Job{Steps: 200, AfterStep: func(rs *core.RankSim) bool {
		if s := rs.StepCount(); s == 1 || s == 100 || s == 200 {
			counts = append(counts, rs.TotalParticles())
		}
		return false
	}})
	if counts[0] <= counts[1] || counts[1] <= counts[2] {
		t.Fatalf("absorbing walls: particles %v at steps 1, 100, 200; the walls are not reached in both halves", counts)
	}

	dir := t.TempDir()
	for _, tc := range []struct {
		ranks, workers int
		tcp            bool
	}{{1, 1, false}, {1, 2, false}, {1, 8, false}, {2, 1, false}, {2, 1, true}} {
		dk := wallDeck(t, tc.ranks, tc.workers)
		run := func(job Job) *Result {
			if !tc.tcp {
				return runMembers(t, dk, job)
			}
			results, errs := runTCPDeck(t, dk, tc.ranks, job)
			for r, err := range errs {
				if err != nil {
					t.Fatalf("TCP rank %d: %v", r, err)
				}
			}
			return results[0]
		}
		path := filepath.Join(dir, fmt.Sprintf("wall-%d-%d-%v.ckpt", tc.ranks, tc.workers, tc.tcp))
		want := run(Job{Steps: 200}).CRCs
		run(Job{Steps: 100, Checkpoint: path})
		if got := run(Job{Steps: 100, Restore: path}).CRCs; !slices.Equal(got, want) {
			t.Errorf("%d ranks, W %d, TCP %v: resumed CRCs %08x, uninterrupted %08x", tc.ranks, tc.workers, tc.tcp, got, want)
		}
	}
}
