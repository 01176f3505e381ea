package dist

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"govpic/internal/balance"
	"govpic/internal/deck"
	"govpic/internal/mp"
	"govpic/internal/output"
)

// spikeSpec is CI's balance smoke on 2 ranks: online balancing moves
// the x-cuts off uniform well before step 20.
var spikeSpec = deck.JSONConfig{Deck: "spike", NX: 32, PPC: 8, Ranks: 2, Workers: 1, Steps: 40,
	Balance: "online", BalanceInterval: 2, BalanceThreshold: 1.15}

// TestCheckpointCrossesWorlds: a checkpoint is the world's, not its
// host's. On the balanced spike deck, a file written at step 20 by a
// 2-rank loopback-TCP world resumes in an in-process Simulation, and a
// file the Simulation wrote resumes on a TCP world; both reach the
// uninterrupted run's CRCs at step 40.
func TestCheckpointCrossesWorlds(t *testing.T) {
	dk, err := spikeSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	full, err := dk.New()
	if err != nil {
		t.Fatal(err)
	}
	uniform := full.CutsX()
	full.Run(40)
	want := full.StateCRCs()
	dir := t.TempDir()

	fromTCP := filepath.Join(dir, "tcp.ckpt")
	results, errs := runTCPJob(t, spikeSpec, 2, Job{Steps: 20, Every: 10, Checkpoint: fromTCP})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("TCP rank %d: %v", r, err)
		}
	}
	if balance.CutsEqual(results[0].CutsX, uniform) {
		t.Fatalf("the balancer never moved the cuts by step 20: %v", results[0].CutsX)
	}
	sim, err := dk.New()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(fromTCP)
	if err != nil {
		t.Fatal(err)
	}
	err = sim.Restore(f)
	f.Close()
	if err != nil {
		t.Fatalf("in-process restore of the TCP world's file: %v", err)
	}
	sim.Run(20)
	if got := sim.StateCRCs(); !slices.Equal(got, want) {
		t.Errorf("TCP → in-process: CRCs %08x, uninterrupted %08x", got, want)
	}

	half, err := dk.New()
	if err != nil {
		t.Fatal(err)
	}
	half.Run(20)
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
