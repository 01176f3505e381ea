package core

import (
	"fmt"
	"testing"
)

// TestOverlapDeterminism is the acceptance test of the overlap engine:
// the same multi-rank deck advanced with the nonblocking
// boundary-first pipeline and with the synchronous oracle path must
// produce byte-identical particle state, fields, and per-step energies.
// The 4-rank deck decomposes 2×2×1, so corner migrations cross the
// split exchange too.
func TestOverlapDeterminism(t *testing.T) {
	const steps = 12
	run := func(noOverlap bool, workers int) *Simulation {
		cfg := twoSpeciesDeck(4, workers)
		cfg.NoOverlap = noOverlap
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, workers := range []int{1, 4} {
		a := run(false, workers) // overlap on (the default)
		b := run(true, workers)  // synchronous oracle
		for step := 0; step < steps; step++ {
			a.Run(1)
			b.Run(1)
			ea, eb := a.Energy(), b.Energy()
			if ea.Total != eb.Total || ea.EField != eb.EField || ea.BField != eb.BField {
				t.Fatalf("W=%d step %d: energies differ: %+v vs %+v", workers, step, ea, eb)
			}
		}
		compareSims(t, a, b, fmt.Sprintf("W=%d overlap on vs off", workers))

		// The overlapped run must actually account request time.
		pb := SumReports(a.Reports())
		if pb.CommWait() <= 0 && pb.CommOverlap() <= 0 {
			t.Errorf("W=%d: overlap run recorded no comm wait/overlap time", workers)
		}
		// The oracle path never posts requests from the step loop, so its
		// breakdown must stay clean of engine accounting.
		if ob := SumReports(b.Reports()); ob.CommOverlap() < 0 {
			t.Errorf("W=%d: negative overlap %v", workers, ob.CommOverlap())
		}
	}
}

// TestOverlapCheckpointRoundTrip: a checkpoint taken mid-run under the
// overlap pipeline must restore into a simulation that continues
// bit-identically (the split push keeps no cross-step state).
func TestOverlapCheckpointRoundTrip(t *testing.T) {
	cfg := twoSpeciesDeck(2, 2)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Run(6)
	crcs := a.StateCRCs()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.Run(6)
	for r, c := range b.StateCRCs() {
		if c != crcs[r] {
			t.Fatalf("rank %d CRC %08x vs %08x across identical overlap runs", r, c, crcs[r])
		}
	}
}
