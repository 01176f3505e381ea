package core

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"govpic/internal/balance"
	"govpic/internal/loader"
	"govpic/internal/push"
)

// spikePlasma is the imbalance-adversarial fixture: a periodic thermal
// plasma whose particles all live in a narrow truncated-Gaussian
// filament around 0.6·Lx, so a uniform x-split concentrates nearly the
// whole push on one rank (mirrors deck.Spike, rebuilt here because the
// deck package depends on core).
func spikePlasma(nx, ny, nz, ppc, nRanks int) Config {
	allWrap := [6]push.Action{push.Wrap, push.Wrap, push.Wrap, push.Wrap, push.Wrap, push.Wrap}
	lx := float64(nx) * 0.5
	xc, sigma := 0.6*lx, 0.03*lx
	return Config{
		NX: nx, NY: ny, NZ: nz,
		DX: 0.5, DY: 0.5, DZ: 0.5,
		DT:         0.2,
		NRanks:     nRanks,
		ParticleBC: allWrap,
		Species: []SpeciesConfig{{
			Name: "electron", Q: -1, M: 1, SortInterval: 10,
			Load: &loader.Params{
				Profile: func(x, y, z float64) float64 {
					d := (x - xc) / sigma
					if d*d > 9 {
						return 0
					}
					return 0.2 * math.Exp(-0.5*d*d)
				},
				PPC: ppc, Nref: 0.2,
				Uth: [3]float64{0.05, 0.05, 0.05}, Seed: 20080415,
			},
		}},
		NeutralizingBackground: true,
	}
}

func TestRestoreLayoutMismatchIsStructured(t *testing.T) {
	cfg := periodicPlasma(16, 0.2, 0.05, 8, 2)
	cfg.CutsX = []int{0, 6, 16}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(3)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	// Same grid, uniform layout: recoverable, carrying the recorded cuts.
	uni := periodicPlasma(16, 0.2, 0.05, 8, 2)
	s2, err := New(uni)
	if err != nil {
		t.Fatal(err)
	}
	err = s2.Restore(bytes.NewReader(buf.Bytes()))
	var lme *LayoutMismatchError
	if !errors.As(err, &lme) {
		t.Fatalf("restore across layouts: err = %v, want *LayoutMismatchError", err)
	}
	if got, want := lme.Layout.CX, []int{0, 6, 16}; !balance.CutsEqual(got, want) {
		t.Fatalf("recorded cuts = %v, want %v", got, want)
	}

	// Rebuilding the recorded geometry makes the same file restore
	// exactly.
	exact := periodicPlasma(16, 0.2, 0.05, 8, 2)
	exact.CutsX = append([]int(nil), lme.Layout.CX...)
	s3, err := New(exact)
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if a, b := s.StateCRCs(), s3.StateCRCs(); !equalCRCs(a, b) {
		t.Fatalf("exact resume CRCs %08x != source %08x", b, a)
	}

	// Different grid: the hard, unrecoverable error.
	wide := periodicPlasma(32, 0.2, 0.05, 8, 2)
	s4, err := New(wide)
	if err != nil {
		t.Fatal(err)
	}
	err = s4.Restore(bytes.NewReader(buf.Bytes()))
	var gme *GeometryMismatchError
	if !errors.As(err, &gme) {
		t.Fatalf("restore across grids: err = %v, want *GeometryMismatchError", err)
	}
	if errors.As(err, &lme) && false {
		t.Fatal("unreachable")
	}
	// And RestoreRebin refuses it too — no resume path bridges a grid
	// change.
	if err := s4.restoreRebin(bytes.NewReader(buf.Bytes())); !errors.As(err, &gme) {
		t.Fatalf("rebin across grids: err = %v, want *GeometryMismatchError", err)
	}
}

func TestRestoreRebinPreservesDigest(t *testing.T) {
	cfg := spikePlasma(32, 4, 4, 8, 4)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(4)
	dig := s.CanonicalDigest()
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	moved := spikePlasma(32, 4, 4, 8, 4)
	moved.CutsX = []int{0, 14, 18, 22, 32}
	s2, err := New(moved)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.restoreRebin(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := s2.CanonicalDigest(); got != dig {
		t.Fatalf("re-binned digest %016x != source %016x", got, dig)
	}
	if got, want := s2.TotalParticles(), s.TotalParticles(); got != want {
		t.Fatalf("re-binned particle count %d != %d", got, want)
	}
	// The re-binned world keeps stepping sanely.
	s2.Run(3)
	e := s2.Energy()
	if math.IsNaN(e.Total) || e.Total <= 0 {
		t.Fatalf("energy after re-binned continuation: %+v", e)
	}
}

func TestReshapeXPreservesDigest(t *testing.T) {
	cfg := spikePlasma(32, 4, 4, 8, 4)
	cfg.Balance.Mode = balance.Online // gates validation; steps driven manually
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2)
	dig := s.CanonicalDigest()
	before := s.CutsX()
	counts := planeCountsX(s)
	newCX := balance.BisectCuts(counts, 4)
	if balance.CutsEqual(newCX, before) {
		t.Fatal("fixture not adversarial enough: bisection agrees with uniform cuts")
	}
	s.each(func(rs *RankSim) { rs.Rank.reshapeX(&rs.Cfg, newCX) })
	if got := s.CutsX(); !balance.CutsEqual(got, newCX) {
		t.Fatalf("cuts after reshape = %v, want %v", got, newCX)
	}
	if got := s.CanonicalDigest(); got != dig {
		t.Fatalf("reshape changed the digest: %016x != %016x", got, dig)
	}
	if got, want := balance.Imbalance(counts, newCX), balance.Imbalance(counts, before); got >= want {
		t.Fatalf("reshape did not reduce imbalance: %.3f → %.3f", want, got)
	}
	s.Run(3)
	e := s.Energy()
	if math.IsNaN(e.Total) || e.Total <= 0 {
		t.Fatalf("energy after reshape continuation: %+v", e)
	}
}

// TestReshapeXJumpPreservesDigest drives the general slab transfer with
// a hand-picked jump from the uniform cuts [0 8 16 24 32]: rank 0's new
// extent [0,17) draws on three old owners, rank 1's new [17,19) is
// disjoint from its old [8,16) and receives the spike's particles from
// rank 2, and rank 3 gains planes from rank 2 while keeping its own.
func TestReshapeXJumpPreservesDigest(t *testing.T) {
	cfg := spikePlasma(32, 4, 4, 8, 4)
	cfg.Balance.Mode = balance.Online // gates validation; steps driven manually
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2)
	if got, want := s.CutsX(), []int{0, 8, 16, 24, 32}; !balance.CutsEqual(got, want) {
		t.Fatalf("fixture cuts = %v, want uniform %v", got, want)
	}
	dig, n := s.CanonicalDigest(), s.TotalParticles()
	target := []int{0, 17, 19, 21, 32}
	s.each(func(rs *RankSim) { rs.Rank.reshapeX(&rs.Cfg, target) })
	if got := s.CutsX(); !balance.CutsEqual(got, target) {
		t.Fatalf("cuts after jump = %v, want %v", got, target)
	}
	if got := s.CanonicalDigest(); got != dig {
		t.Fatalf("jump changed the digest: %016x != %016x", got, dig)
	}
	if got := s.TotalParticles(); got != n {
		t.Fatalf("jump changed the particle count: %d != %d", got, n)
	}
	if s.Reports()[1].Particles == 0 {
		t.Fatal("the disjoint rank received no particles: fixture does not exercise the transfer")
	}
	for i := 0; i < 3; i++ {
		s.Step()
		if e := s.Energy(); math.IsNaN(e.Total) || math.IsInf(e.Total, 0) || e.Total <= 0 {
			t.Fatalf("step %d after jump: energy %+v", i+1, e)
		}
	}
}

// TestReshapeKeepsSortPasses: a reshape rebuilds each rank's sort
// workspace, and the passes the old workspace counted must survive in
// the report. On `vpic -deck spike -ranks 2 -nx 64 -ppc 16 -steps 60
// -balance-interval 30`'s shape the step-30 reshape falls between the
// step-20 and step-40 sorts, so balancing off and online must both
// report 2 ranks × 2 sorts.
func TestReshapeKeepsSortPasses(t *testing.T) {
	run := func(mode balance.Mode) (int64, []int) {
		cfg := spikePlasma(64, 8, 8, 16, 2)
		cfg.Species[0].SortInterval = 20
		cfg.Balance.Mode = mode
		cfg.Balance.Interval = 30
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(60)
		return SumReports(s.Reports()).SortPasses.Sorts, s.CutsX()
	}
	off, cutsOff := run(balance.Off)
	on, cutsOn := run(balance.Online)
	if balance.CutsEqual(cutsOn, cutsOff) {
		t.Fatalf("the online run never reshaped: cuts %v", cutsOn)
	}
	if off != 4 || on != off {
		t.Fatalf("sorts: %d with balancing off, %d online (cuts %v); want 4 both", off, on, cutsOn)
	}
}

// TestOnlineBalanceMatchesStatic is the in-process form of the CI
// smoke: on the spike deck, an online-balanced run's energy history
// must match the static run's step for step (same physics, different
// partitions — bitwise equality is not expected because summation
// association differs across layouts), and a never-triggering balanced
// run must be bit-identical to static.
func TestOnlineBalanceMatchesStatic(t *testing.T) {
	const steps = 40
	run := func(mode balance.Mode, threshold float64) (*Simulation, []float64) {
		cfg := spikePlasma(32, 4, 4, 8, 4)
		cfg.Balance.Mode = mode
		cfg.Balance.Interval = 2
		cfg.Balance.Threshold = threshold
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var hist []float64
		for i := 0; i < steps; i++ {
			s.Step()
			hist = append(hist, s.Energy().Total)
		}
		return s, hist
	}

	sOff, histOff := run(balance.Off, 1.25)
	sOn, histOn := run(balance.Online, 1.15)

	if balance.CutsEqual(sOn.CutsX(), sOff.CutsX()) {
		t.Fatalf("online run never moved a plane: cuts %v", sOn.CutsX())
	}
	for i := range histOff {
		rel := math.Abs(histOn[i]-histOff[i]) / math.Abs(histOff[i])
		if rel > 1e-5 || math.IsNaN(rel) {
			t.Fatalf("step %d: balanced energy %.9g vs static %.9g (rel %.2g)", i+1, histOn[i], histOff[i], rel)
		}
	}
	// The balanced layout really is better for this load.
	counts := planeCountsX(sOn)
	if got, want := balance.Imbalance(counts, sOn.CutsX()), balance.Imbalance(counts, sOff.CutsX()); got >= want {
		t.Fatalf("online balancing did not reduce imbalance: %.3f → %.3f", want, got)
	}

	// A threshold no load reaches must leave the run bit-identical to
	// static (the check collective computes but never acts).
	sIdle, histIdle := run(balance.Online, 1e9)
	if !equalCRCs(sIdle.StateCRCs(), sOff.StateCRCs()) {
		t.Fatal("never-triggered online run diverged from static bitwise")
	}
	for i := range histOff {
		if histIdle[i] != histOff[i] {
			t.Fatalf("step %d: never-triggered energy %g != static %g", i+1, histIdle[i], histOff[i])
		}
	}
}

// planeCountsX returns the global per-x-plane particle counts (the
// balance weights), summed over all ranks and species.
func planeCountsX(s *Simulation) []float64 {
	counts := make([]float64, s.Cfg.NX)
	for _, rk := range s.Ranks {
		rk.addPlaneCountsX(counts)
	}
	return counts
}

func equalCRCs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
