package core

import (
	"fmt"
	"testing"

	"govpic/internal/loader"
	"govpic/internal/perf"
	"govpic/internal/push"
)

// twoSpeciesDeck is a fixed-seed 3D periodic hydrogen plasma hot enough
// that particles cross cell faces every step.
func twoSpeciesDeck(nRanks, workers int) Config {
	allWrap := [6]push.Action{push.Wrap, push.Wrap, push.Wrap, push.Wrap, push.Wrap, push.Wrap}
	n0 := 0.25
	return Config{
		NX: 12, NY: 6, NZ: 4,
		DX: 0.5, DY: 0.5, DZ: 0.5,
		DT:         0.12,
		NRanks:     nRanks,
		Workers:    workers,
		ParticleBC: allWrap,
		Species: []SpeciesConfig{
			{
				Name: "electron", Q: -1, M: 1, SortInterval: 5,
				Load: &loader.Params{
					Profile: loader.Uniform(n0), PPC: 16, Nref: n0,
					Uth: [3]float64{0.08, 0.08, 0.08}, Seed: 23,
				},
			},
			{
				Name: "ion", Q: 1, M: 100, SortInterval: 7,
				NeutralizePrevious: true,
				Load: &loader.Params{
					Uth: [3]float64{0.01, 0.01, 0.01}, Seed: 24,
				},
			},
		},
	}
}

// TestWorkerCountDeterminism is the acceptance test of the pipeline
// layer: the same deck advanced with 1 worker and with 4 (and 8)
// workers must produce byte-identical particle state AND fields. The
// fixed pipe.NumBlocks partition and the deterministic block reduction
// make the arithmetic independent of the worker count.
func TestWorkerCountDeterminism(t *testing.T) {
	const steps = 20
	run := func(workers int) *Simulation {
		s, err := New(twoSpeciesDeck(1, workers))
		if err != nil {
			t.Fatal(err)
		}
		s.Run(steps)
		return s
	}
	ref := run(1)
	for _, w := range []int{4, 8} {
		got := run(w)
		compareSims(t, ref, got, fmt.Sprintf("W=1 vs W=%d", w))
	}
}

// TestNewLeavesNoPoolTime: the load's pool regions are set-up, so right
// after New no rank's pool holds busy or wall time for the first step's
// section concurrency to fold in. Every species comes out of the load in
// ascending voxel order, which is why the first sort can wait for step
// SortInterval.
func TestNewLeavesNoPoolTime(t *testing.T) {
	for _, nRanks := range []int{1, 2} {
		s, err := New(twoSpeciesDeck(nRanks, 2))
		if err != nil {
			t.Fatal(err)
		}
		for r, rk := range s.Ranks {
			if busy, wall := rk.pool.TakeStats(0); busy != 0 || wall != 0 {
				t.Errorf("%d ranks, rank %d: the pool holds busy %v, wall %v after New", nRanks, r, busy, wall)
			}
			for _, sp := range rk.Species {
				for i := 1; i < sp.Buf.N(); i++ {
					if sp.Buf.Voxel(i) < sp.Buf.Voxel(i-1) {
						t.Fatalf("%d ranks, rank %d: %s voxel %d at %d follows %d", nRanks, r, sp.Name, sp.Buf.Voxel(i), i, sp.Buf.Voxel(i-1))
					}
				}
			}
		}
	}
}

// TestWorkerDeterminismMultiRank repeats the check across the rank
// decomposition: worker count must not leak into the particle exchange
// or ghost updates either. The 4-rank deck decomposes 2×2×1, so corner
// migrations cross the split exchange and its settle rounds too.
func TestWorkerDeterminismMultiRank(t *testing.T) {
	const steps = 12
	for _, ranks := range []int{2, 4} {
		run := func(workers int) *Simulation {
			s, err := New(twoSpeciesDeck(ranks, workers))
			if err != nil {
				t.Fatal(err)
			}
			s.Run(steps)
			return s
		}
		compareSims(t, run(1), run(4), fmt.Sprintf("%d ranks, W=1 vs W=4", ranks))
	}
}

// compareSims requires bitwise-equal particle buffers and field arrays.
func compareSims(t *testing.T, a, b *Simulation, label string) {
	t.Helper()
	if len(a.Ranks) != len(b.Ranks) {
		t.Fatalf("%s: rank counts differ", label)
	}
	for r := range a.Ranks {
		ra, rb := a.Ranks[r], b.Ranks[r]
		for si := range ra.Species {
			pa, pb := ra.Species[si].Buf, rb.Species[si].Buf
			if pa.N() != pb.N() {
				t.Fatalf("%s: rank %d species %d particle counts %d vs %d",
					label, r, si, pa.N(), pb.N())
			}
			for i := 0; i < pa.N(); i++ {
				if pa.At(i) != pb.At(i) {
					t.Fatalf("%s: rank %d species %d particle %d differs:\n%+v\n%+v",
						label, r, si, i, pa.At(i), pb.At(i))
				}
			}
		}
		fa, fb := ra.D.F, rb.D.F
		for _, arr := range []struct {
			name string
			x, y []float32
		}{
			{"Ex", fa.Ex, fb.Ex}, {"Ey", fa.Ey, fb.Ey}, {"Ez", fa.Ez, fb.Ez},
			{"Bx", fa.Bx, fb.Bx}, {"By", fa.By, fb.By}, {"Bz", fa.Bz, fb.Bz},
			{"Jx", fa.Jx, fb.Jx}, {"Jy", fa.Jy, fb.Jy}, {"Jz", fa.Jz, fb.Jz},
		} {
			for v := range arr.x {
				if arr.x[v] != arr.y[v] {
					t.Fatalf("%s: rank %d %s[%d] = %g vs %g",
						label, r, arr.name, v, arr.x[v], arr.y[v])
				}
			}
		}
	}
}

// TestWorkerCountDeterminismSortedAndUnsorted is the acceptance test of
// the memory-traffic overhaul (fused runs + windowed accumulators +
// zero-copy sort): worker counts {1, 3, 8} must produce byte-identical
// particle and field state both on the normally sorted deck and on a
// deck whose species never sort — so buffers churn into adversarial
// voxel order via swap-removals and the fused kernel degenerates to
// one-particle runs.
func TestWorkerCountDeterminismSortedAndUnsorted(t *testing.T) {
	const steps = 20
	for _, sorted := range []bool{true, false} {
		name := "sorted"
		if !sorted {
			name = "unsorted"
		}
		run := func(workers int) *Simulation {
			cfg := twoSpeciesDeck(1, workers)
			if !sorted {
				for i := range cfg.Species {
					cfg.Species[i].SortInterval = 0
				}
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Run(steps)
			return s
		}
		ref := run(1)
		for _, w := range []int{3, 8} {
			compareSims(t, ref, run(w), fmt.Sprintf("%s W=1 vs W=%d", name, w))
		}
	}
}

// TestPushTrafficModel checks the wired-up bytes-moved accounting: the
// push and sort sections must report traffic, and on a sorted deck the
// modeled bytes per particle-push must beat the naive per-particle
// model (the whole point of run fusion + windowed accumulators).
func TestPushTrafficModel(t *testing.T) {
	s, err := New(twoSpeciesDeck(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(20)
	b := SumReports(s.Reports())
	pushB := b.BytesMoved(perf.Push)
	if pushB <= 0 {
		t.Fatal("push section recorded no bytes moved")
	}
	if b.BytesMoved(perf.Sort) <= 0 {
		t.Fatal("sort section recorded no bytes moved")
	}
	perPart := float64(pushB) / float64(b.Pushed)
	if perPart >= push.BytesPerPush {
		t.Fatalf("modeled %.1f B/particle, want < %d (unfused model)", perPart, push.BytesPerPush)
	}
	if perPart < push.BytesPerParticle {
		t.Fatalf("modeled %.1f B/particle is below the irreducible %d", perPart, push.BytesPerParticle)
	}
}

// TestPipelineRace drives a multi-rank, multi-worker run long enough
// for sorts, collisions of block boundaries with migrations, and every
// parallel sweep to interleave — the `go test -race` target for the
// pipeline layer.
func TestPipelineRace(t *testing.T) {
	cfg := twoSpeciesDeck(2, 4)
	cfg.CleanInterval = 8
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n0 := s.TotalParticles()
	s.Run(20)
	if s.TotalParticles() != n0 {
		t.Fatalf("periodic run lost particles: %d -> %d", n0, s.TotalParticles())
	}
	// The push section must have recorded pipeline-parallel regions.
	b := SumReports(s.Reports())
	if b.Concurrency(perf.Push) <= 0 {
		t.Fatal("no pipeline stats recorded for the push section")
	}
	if b.Wall[perf.Push] <= 0 {
		t.Fatal("push section reports no wall time in parallel regions")
	}
}
