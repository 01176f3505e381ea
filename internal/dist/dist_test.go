package dist

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"govpic/internal/core"
	"govpic/internal/deck"
	"govpic/internal/grid"
	"govpic/internal/mp"
	"govpic/internal/push"
	"govpic/internal/testnet"
	"govpic/internal/transport"
)

// TestDistributedMatchesInProcess is the transport-transparency proof:
// a 4-rank (2×2×1-decomposed) thermal deck run over real TCP sockets
// must leave bit-identical per-rank state — same checkpoint CRCs, same
// global energy bits — as the identical deck on the in-process channel
// world.
func TestDistributedMatchesInProcess(t *testing.T) {
	const ranks, steps = 4, 8
	mk := func() deck.Deck { return deck.Thermal(8, 8, 4, 8, ranks, 0.2, 0.05) }

	// The point of 4 ranks is a 2-D decomposition: verify the chosen
	// layout really is 2×2×1 so both x and y links carry traffic.
	dec, err := grid.ChooseDecomp(ranks, 8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if dec.PX != 2 || dec.PY != 2 || dec.PZ != 1 {
		t.Fatalf("decomposition is %d×%d×%d, want 2×2×1", dec.PX, dec.PY, dec.PZ)
	}

	// Reference: the in-process channel world.
	ref := mk()
	sim, err := ref.New()
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(steps)
	wantCRCs := sim.StateCRCs()
	wantE := sim.Energy()

	// Same deck, four processes' worth of ranks over localhost TCP.
	join := testnet.FreeAddr(t)
	opts := transport.Options{PeerTimeout: 2 * time.Second}
	results := make([]*Result, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			results[rank], errs[rank] = Run(mk(), Job{Steps: steps, Every: steps}, Config{
				Rank: rank, Ranks: ranks, Join: join, Listen: "127.0.0.1:0",
				Transport: opts,
			}, nil)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}

	for r := 0; r < ranks; r++ {
		res := results[r]
		if len(res.CRCs) != ranks {
			t.Fatalf("rank %d has %d CRCs", r, len(res.CRCs))
		}
		for i, crc := range res.CRCs {
			if crc != wantCRCs[i] {
				t.Errorf("rank %d's view: CRC[%d] = %08x over TCP, %08x in-process", r, i, crc, wantCRCs[i])
			}
		}
	}

	// Global energy must match to the bit (rank-ordered reductions).
	got := results[0].History.Samples[len(results[0].History.Samples)-1]
	if math.Float64bits(got.EField) != math.Float64bits(wantE.EField) ||
		math.Float64bits(got.BField) != math.Float64bits(wantE.BField) {
		t.Errorf("field energy differs: TCP (%x, %x) vs in-process (%x, %x)",
			math.Float64bits(got.EField), math.Float64bits(got.BField),
			math.Float64bits(wantE.EField), math.Float64bits(wantE.BField))
	}
	for i := range got.Kinetic {
		if math.Float64bits(got.Kinetic[i]) != math.Float64bits(wantE.Kinetic[i]) {
			t.Errorf("kinetic[%d] differs over TCP", i)
		}
	}

	// The comm reports must show ghost and particle traffic on every rank.
	for _, rep := range results[0].Reports {
		if len(rep.Links) == 0 {
			t.Errorf("rank %d reports no link traffic", rep.Rank)
		}
		classes := map[string]bool{}
		for _, c := range rep.Classes {
			classes[c.Class] = true
		}
		for _, want := range []string{"ghostE", "ghostB", "foldJ", "particles"} {
			if !classes[want] {
				t.Errorf("rank %d reports no %s traffic", rep.Rank, want)
			}
		}
	}
}

// runTCP runs spec as a loopback-TCP world, one Run per rank, and
// returns rank 0's view of every rank's CRC.
func runTCP(t *testing.T, spec deck.JSONConfig, ranks int) []uint32 {
	t.Helper()
	return runTCPResult(t, spec, ranks).CRCs
}

// runTCPResult is runTCP returning rank 0's whole Result.
func runTCPResult(t *testing.T, spec deck.JSONConfig, ranks int) *Result {
	t.Helper()
	results, errs := runTCPJob(t, spec, ranks, Job{Steps: spec.Steps, Every: spec.Steps})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return results[0]
}

// runTCPJob runs job on spec's deck as a loopback-TCP world
// (runTCPDeck).
func runTCPJob(t *testing.T, spec deck.JSONConfig, ranks int, job Job) ([]*Result, []error) {
	t.Helper()
	dk, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	return runTCPDeck(t, dk, ranks, job)
}

// runTCPDeck runs job on dk as a loopback-TCP world of ranks ranks, one
// Run per rank, and returns every rank's result and error. A world
// still running after a minute fails the test as hung.
func runTCPDeck(t *testing.T, dk deck.Deck, ranks int, job Job) ([]*Result, []error) {
	t.Helper()
	join := testnet.FreeAddr(t)
	results := make([]*Result, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			results[rank], errs[rank] = Run(dk, job, Config{
				Rank: rank, Ranks: ranks, Join: join, Listen: "127.0.0.1:0",
			}, nil)
		}(r)
	}
	waitOrHang(t, wg.Wait)
	return results, errs
}

// waitOrHang runs wait, failing the test if it has not returned
// within a minute.
func waitOrHang(t *testing.T, wait func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("the world hung")
	}
}

// TestSetupDecksRunOnEveryWorld: a deck's Setup hook is per-rank and
// local, so a deck that has one runs on any world. The reflux-walls LPI
// deck (kernels switched to thermal re-emission) on 2 ranks and the
// oscillation deck (PerturbVelocity) on 1 must leave identical per-rank
// CRCs from the lockstep Simulation (Deck.New), from free-running
// members on an in-process world (Deck.NewRank under mp.Run) and from
// dist.Run over loopback TCP — on both kernels.
func TestSetupDecksRunOnEveryWorld(t *testing.T) {
	kernels := []string{push.KernelGo}
	if push.AsmAvailable() {
		kernels = append(kernels, push.KernelAsm)
	}
	for _, spec := range []deck.JSONConfig{
		{Deck: "lpi", A0: 0.05, Ranks: 2, RefluxWalls: true, PPC: 16, Steps: 20},
		{Deck: "oscillation", NX: 32, PPC: 16, Steps: 20},
	} {
		for _, kernel := range kernels {
			spec.Kernel = kernel
			dk, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			if dk.Setup == nil {
				t.Fatalf("%s deck has no Setup hook: the test would prove nothing", spec.Deck)
			}
			ranks := dk.Cfg.NRanks

			sim, err := dk.New()
			if err != nil {
				t.Fatal(err)
			}
			sim.Run(spec.Steps)
			want := sim.StateCRCs()

			free := make([]uint32, ranks)
			mp.Run(ranks, func(comm *mp.Comm) {
				rs, err := dk.NewRank(comm)
				if err != nil {
					t.Error(err)
					return
				}
				rs.Run(spec.Steps)
				free[comm.Rank()] = rs.StateCRC()
			})
			tcp := runTCP(t, spec, ranks)
			for r := range want {
				if free[r] != want[r] || tcp[r] != want[r] {
					t.Errorf("%s/%s rank %d: CRC %08x lockstep, %08x free-running, %08x TCP",
						spec.Deck, kernel, r, want[r], free[r], tcp[r])
				}
			}
		}
	}
}

// TestAfterStepStopsEveryMember: an AfterStep that answers stop at step
// k — calling a collective (Reports) every step on the way — ends every
// member of a 2-rank world at k, in-process and over loopback TCP, with
// every member's CRCs equal to a plain k-step run's.
func TestAfterStepStopsEveryMember(t *testing.T) {
	const k = 7
	spec := deck.JSONConfig{Deck: "thermal", NX: 16, PPC: 8, Ranks: 2, Workers: 1, Steps: 20}
	dk, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := runMembers(t, dk, Job{Steps: k}).CRCs
	calls := make([]int, 2) // hook calls, one slot per member
	job := Job{Steps: spec.Steps, Every: 5, AfterStep: func(rs *core.RankSim) bool {
		calls[rs.Comm().Rank()]++
		if reps, err := Reports(rs); err != nil || len(reps) != 2 || reps[1].Rank != 1 {
			t.Errorf("rank %d, step %d: Reports gave %d reports, %v", rs.Comm().Rank(), rs.StepCount(), len(reps), err)
		}
		return rs.StepCount() == k
	}}

	worlds := map[string]func() ([]*Result, []error){
		"in-process": func() ([]*Result, []error) {
			res, errs := make([]*Result, 2), make([]error, 2)
			waitOrHang(t, func() {
				mp.Run(2, func(c *mp.Comm) { res[c.Rank()], errs[c.Rank()] = Member(dk, c, job, nil) })
			})
			return res, errs
		},
		"TCP": func() ([]*Result, []error) { return runTCPJob(t, spec, 2, job) },
	}
	for world, run := range worlds {
		calls[0], calls[1] = 0, 0
		results, errs := run()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("%s rank %d: %v", world, r, err)
			}
			if res := results[r]; res.Steps != k || calls[r] != k || !slices.Equal(res.CRCs, want) {
				t.Errorf("%s rank %d: ended at step %d after %d hook calls, CRCs %08x; want step %d, CRCs %08x",
					world, r, res.Steps, calls[r], res.CRCs, k, want)
			}
		}
	}
}

// dying is a TCP endpoint that dies on receiving its checkpoint
// payload: the peer lost while rank 0 hands the payloads out.
type dying struct{ mp.Transport }

func (d dying) Recv(src, tag int) (any, error) {
	v, err := d.Transport.Recv(src, tag)
	if b, ok := v.([]byte); ok && len(b) > 1<<10 {
		d.Transport.Close()
		return nil, &mp.PeerDeadError{Rank: d.Rank(), Peer: src, Cause: errors.New("died mid-restore")}
	}
	return v, err
}

// TestRejectedRestoreIsErrRestore: a corrupt checkpoint fails every
// member, in-process and over TCP, with an error that is ErrRestore, so
// a caller knows it may rerun fresh; a peer that dies while the
// payloads are handed out fails the members with errors that are not.
func TestRejectedRestoreIsErrRestore(t *testing.T) {
	spec := deck.JSONConfig{Deck: "thermal", NX: 16, PPC: 8, Ranks: 2, Workers: 1, Steps: 2}
	dk, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	good, bad := filepath.Join(dir, "good.ckpt"), filepath.Join(dir, "bad.ckpt")
	runMembers(t, dk, Job{Steps: 2, Checkpoint: good})
	b, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(bad, b, 0o644); err != nil {
		t.Fatal(err)
	}

	job := Job{Steps: 2, Restore: bad}
	inProcess := make([]error, 2)
	waitOrHang(t, func() {
		mp.Run(2, func(c *mp.Comm) { _, inProcess[c.Rank()] = Member(dk, c, job, nil) })
	})
	_, tcp := runTCPJob(t, spec, 2, job)
	for world, errs := range map[string][]error{"in-process": inProcess, "TCP": tcp} {
		for r, err := range errs {
			if !errors.Is(err, ErrRestore) || !strings.Contains(err.Error(), "CRC") {
				t.Errorf("corrupt file, %s rank %d: err = %v, want ErrRestore naming the CRC", world, r, err)
			}
		}
	}

	join := testnet.FreeAddr(t)
	opts := transport.Options{PeerTimeout: 2 * time.Second}
	job = Job{Steps: 2, Restore: good}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, errs[0] = Run(dk, job, Config{Rank: 0, Ranks: 2, Join: join, Listen: "127.0.0.1:0", Transport: opts}, nil)
	}()
	go func() {
		defer wg.Done()
		tr, err := transport.Connect(1, 2, join, "127.0.0.1:0", opts)
		if err != nil {
			errs[1] = err
			return
		}
		defer tr.Close()
		_, errs[1] = Member(dk, mp.NewComm(dying{tr}), job, nil)
	}()
	waitOrHang(t, wg.Wait)
	for r, err := range errs {
		if err == nil || errors.Is(err, ErrRestore) {
			t.Errorf("dead peer, rank %d: err = %v, want a comm error that is not ErrRestore", r, err)
		}
	}
}
