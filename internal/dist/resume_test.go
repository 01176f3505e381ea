package dist

import (
	"bytes"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"govpic/internal/core"
	"govpic/internal/deck"
	"govpic/internal/diag"
	"govpic/internal/mp"
	"govpic/internal/testnet"
	"govpic/internal/transport"
)

// TestResumeNeverLoads: a resumed member builds its tile empty and
// reads its particles from the file. On a 2-rank thermal deck whose
// density profile counts its calls, a fresh run calls the loader's
// profile and a resumed one, in process and over TCP, never does.
func TestResumeNeverLoads(t *testing.T) {
	dk, err := deck.JSONConfig{Deck: "thermal", NX: 16, PPC: 8, Ranks: 2, Workers: 1, Steps: 4}.Build()
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	load := *dk.Cfg.Species[0].Load
	profile := load.Profile
	load.Profile = func(x, y, z float64) float64 {
		calls.Add(1)
		return profile(x, y, z)
	}
	dk.Cfg.Species = slices.Clone(dk.Cfg.Species)
	dk.Cfg.Species[0].Load = &load

	path := filepath.Join(t.TempDir(), "thermal.ckpt")
	runMembers(t, dk, Job{Steps: 4, Checkpoint: path})
	if calls.Load() == 0 {
		t.Fatal("a fresh run never called the profile: the count proves nothing")
	}
	calls.Store(0)
	runMembers(t, dk, Job{Steps: 4, Restore: path})
	results, errs := runTCPDeck(t, dk, 2, Job{Steps: 4, Restore: path})
	for r, err := range errs {
		if err != nil || results[r].Steps != 8 {
			t.Fatalf("TCP rank %d: %v", r, err)
		}
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("resumed members called the profile %d times, want 0", n)
	}
}

// memberState is what a member holds after a restore: its state CRC,
// the world's canonical digest, its history and step.
type memberState struct {
	CRC     uint32
	Digest  uint64
	History diag.History
	Step    int
}

// eachMember runs member on every rank of an n-rank world, in process or
// over loopback TCP, and returns each rank's state afterwards.
func eachMember(t *testing.T, n int, tcp bool, member func(*mp.Comm) (*core.RankSim, error)) []memberState {
	t.Helper()
	out := make([]memberState, n)
	errs := make([]error, n)
	body := func(c *mp.Comm) {
		rs, err := member(c)
		if err != nil {
			errs[c.Rank()] = err
			return
		}
		out[c.Rank()] = memberState{rs.StateCRC(), rs.CanonicalDigest(), rs.History, rs.StepCount()}
		c.Barrier()
	}
	if !tcp {
		waitOrHang(t, func() { mp.Run(n, body) })
	} else {
		join := testnet.FreeAddr(t)
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tr, err := transport.Connect(r, n, join, "127.0.0.1:0", transport.Options{})
				if err != nil {
					errs[r] = err
					return
				}
				defer tr.Close()
				body(mp.NewComm(tr))
			}()
		}
		waitOrHang(t, wg.Wait)
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return out
}

// TestResumedEqualsRestored: a member resumed from a checkpoint holds
// what the world that wrote it held — state CRC, canonical digest,
// history and step — and, where the file's x-cuts are the uniform ones,
// what a loaded member restored in place holds, in process and over
// TCP: thermal on 1, 2 and 4 ranks, the oscillation deck (its Setup
// perturbation is not applied again to restored particles) and the
// spike deck's file written on the balancer's x-cuts.
func TestResumedEqualsRestored(t *testing.T) {
	for _, spec := range []deck.JSONConfig{
		{Deck: "thermal", NX: 16, PPC: 8, Ranks: 1, Workers: 1, Steps: 7},
		{Deck: "thermal", NX: 16, PPC: 8, Ranks: 2, Workers: 1, Steps: 7},
		{Deck: "thermal", NX: 16, PPC: 8, Ranks: 4, Workers: 1, Steps: 7},
		{Deck: "oscillation", NX: 32, PPC: 16, Steps: 7},
		func() deck.JSONConfig { s := spikeSpec; s.Ranks, s.Steps = 4, 20; return s }(),
	} {
		dk, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		n := dk.Cfg.NRanks
		writer, err := dk.New()
		if err != nil {
			t.Fatal(err)
		}
		runSampled(writer, spec.Steps, 5)
		var ckpt bytes.Buffer
		if err := writer.Checkpoint(&ckpt); err != nil {
			t.Fatal(err)
		}
		want := make([]memberState, n)
		digest := core.Collect(writer, (*core.RankSim).CanonicalDigest)
		for r, crc := range writer.StateCRCs() {
			want[r] = memberState{crc, digest, history(writer), writer.StepCount()}
		}
		uniform := slices.Equal(core.Collect(writer, (*core.RankSim).CutsX), core.Collect(mustDeckNew(t, dk), (*core.RankSim).CutsX))
		if spec.Deck == "spike" && uniform {
			t.Fatal("spike: the balancer never moved the cuts, so the file proves nothing")
		}
		for _, tcp := range []bool{false, true} {
			resumed := eachMember(t, n, tcp, func(c *mp.Comm) (*core.RankSim, error) {
				return dk.ResumeRank(c, bytes.NewReader(ckpt.Bytes()))
			})
			if !reflect.DeepEqual(resumed, want) {
				t.Errorf("%s, %d ranks, TCP %v: resumed %+v, the writer %+v", spec.Deck, n, tcp, resumed, want)
			}
			if !uniform {
				continue
			}
			restored := eachMember(t, n, tcp, func(c *mp.Comm) (*core.RankSim, error) {
				rs, err := dk.NewRank(c)
				if err != nil {
					return nil, err
				}
				return rs, rs.Restore(bytes.NewReader(ckpt.Bytes()))
			})
			if !reflect.DeepEqual(resumed, restored) {
				t.Errorf("%s, %d ranks, TCP %v: resumed %+v, loaded then restored %+v", spec.Deck, n, tcp, resumed, restored)
			}
		}
	}
}

// mustDeckNew builds dk's lockstep simulation or fails the test.
func mustDeckNew(t *testing.T, dk deck.Deck) *core.Simulation {
	t.Helper()
	s, err := dk.New()
	if err != nil {
		t.Fatal(err)
	}
	return s
}
