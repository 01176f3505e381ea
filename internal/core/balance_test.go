package core

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"govpic/internal/balance"
	"govpic/internal/field"
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

// mustNew builds a simulation or fails the test.
func mustNew(t *testing.T, cfg Config) *Simulation {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkpointBytes returns s's checkpoint.
func checkpointBytes(t *testing.T, s *Simulation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoreLayoutMismatchIsStructured: a checkpoint written under
// moved x-cuts resumes bit-exactly into members built on the file's
// cuts (ResumeRankSim), and an in-place Restore into a uniform-cut world
// of the same spec is refused naming both layouts; a different rank
// count or decomposition shape is an error naming the layouts, and a
// different grid is *GeometryMismatchError.
func TestRestoreLayoutMismatchIsStructured(t *testing.T) {
	cfg := periodicPlasma(16, 0.2, 0.05, 8, 2)
	cfg.Balance.Mode = balance.Online // x-only decomposition; the cuts are moved by hand
	s := mustNew(t, cfg)
	s.each(func(rs *RankSim) { rs.Rank.reshapeX(&rs.Cfg, []int{0, 6, 16}) })
	s.Run(3)
	ckpt := checkpointBytes(t, s)

	s2 := mustResume(t, cfg, ckpt)
	if got, want := s2.CutsX(), []int{0, 6, 16}; !slices.Equal(got, want) {
		t.Fatalf("cuts after resume = %v, want the file's %v", got, want)
	}
	s.Run(3)
	s2.Run(3)
	if a, b := s.StateCRCs(), s2.StateCRCs(); !equalCRCs(a, b) {
		t.Fatalf("resumed run CRCs %08x != source %08x", b, a)
	}
	err := mustNew(t, cfg).Restore(bytes.NewReader(ckpt))
	if err == nil || !strings.Contains(err.Error(), "CX:[0 6 16]") || !strings.Contains(err.Error(), "CX:[0 8 16]") {
		t.Fatalf("in-place restore across x-cuts: err = %v, want a refusal naming both layouts", err)
	}

	// Different rank count, same grid.
	four := cfg
	four.NRanks = 4
	if err := mustNew(t, four).Restore(bytes.NewReader(ckpt)); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("restore across rank counts: err = %v, want a layout mismatch", err)
	}

	// Same grid and rank count, different shape: balancing off chooses
	// 1×2×2 on this box, online pins 4×1×1.
	yz := spikePlasma(8, 8, 8, 2, 4)
	xOnly := yz
	xOnly.Balance.Mode = balance.Online
	err = mustNew(t, xOnly).Restore(bytes.NewReader(checkpointBytes(t, mustNew(t, yz))))
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("restore across shapes: err = %v, want a layout mismatch", err)
	}

	// Different grid: the geometry error.
	wide := periodicPlasma(32, 0.2, 0.05, 8, 2)
	var gme *GeometryMismatchError
	if err := mustNew(t, wide).Restore(bytes.NewReader(ckpt)); !errors.As(err, &gme) {
		t.Fatalf("restore across grids: err = %v, want *GeometryMismatchError", err)
	}
}

// TestRestoreAdoptsRecordedCuts is the in-process form of CI's balance
// smoke resume: on the 4-rank spike deck with online balancing
// (interval 2, threshold 1.15), a checkpoint written at step 20 under
// cuts the balancer moved resumes members built on the file's cuts,
// which reach step 40 bit-identical to the uninterrupted run.
func TestRestoreAdoptsRecordedCuts(t *testing.T) {
	cfg := spikePlasma(32, 4, 4, 8, 4)
	cfg.Balance = BalanceConfig{Mode: balance.Online, Interval: 2, Threshold: 1.15}
	full := mustNew(t, cfg)
	full.Run(40)

	half := mustNew(t, cfg)
	uniform := half.CutsX()
	half.Run(20)
	fileCuts := half.CutsX()
	if slices.Equal(fileCuts, uniform) {
		t.Fatalf("the balancer never moved the cuts by step 20: %v", fileCuts)
	}
	ckpt := checkpointBytes(t, half)

	resumed := mustResume(t, cfg, ckpt)
	if got := resumed.CutsX(); !slices.Equal(got, fileCuts) {
		t.Fatalf("cuts after resume = %v, want the file's %v", got, fileCuts)
	}
	resumed.Run(20)
	if a, b := full.StateCRCs(), resumed.StateCRCs(); !equalCRCs(a, b) {
		t.Fatalf("resumed CRCs %08x != uninterrupted %08x", b, a)
	}
}

// TestReshapeXPreservesDigest: on the 4-rank spike deck, the bisection
// of the particle histogram moves the cuts, keeps the state and reduces
// the imbalance; on wallBox's Mur faces on 2 ranks (murFaces), a
// [0 3 8] reshape keeps the state, Mur's section included
// (reshapeKeepsState). Each world steps on afterwards.
func TestReshapeXPreservesDigest(t *testing.T) {
	cfg := spikePlasma(32, 4, 4, 8, 4)
	cfg.Balance.Mode = balance.Online // gates validation; steps driven manually
	s := mustNew(t, cfg)
	s.Run(2)
	before := s.CutsX()
	counts := planeCountsX(s)
	newCX := balance.BisectCuts(counts, 4)
	if slices.Equal(newCX, before) {
		t.Fatal("fixture not adversarial enough: bisection agrees with uniform cuts")
	}
	reshapeKeepsState(t, s, newCX)
	if got, want := balance.Imbalance(counts, newCX), balance.Imbalance(counts, before); got >= want {
		t.Fatalf("reshape did not reduce imbalance: %.3f → %.3f", want, got)
	}
	s.Run(3)
	e := s.Energy()
	if math.IsNaN(e.Total) || e.Total <= 0 {
		t.Fatalf("energy after reshape continuation: %+v", e)
	}
	for _, fc := range murFaces {
		t.Run(fc.name, func(t *testing.T) { reshapeWallBox(t, fc.bc, []int{0, 3, 8}) })
	}
}

// TestReshapeXJumpPreservesDigest drives the general slab transfer with
// a hand-picked jump from the uniform cuts [0 8 16 24 32]: rank 0's new
// extent [0,17) draws on three old owners, rank 1's new [17,19) is
// disjoint from its old [8,16) and receives the spike's particles from
// rank 2, and rank 3 gains planes from rank 2 while keeping its own.
// On wallBox's Mur faces on 4 ranks (murFaces), the jump from
// [0 2 4 6 8] to [0 5 6 7 8] does the same: rank 0 draws on three old
// owners, and rank 1's new [5,6) is disjoint from its old [2,4).
func TestReshapeXJumpPreservesDigest(t *testing.T) {
	cfg := spikePlasma(32, 4, 4, 8, 4)
	cfg.Balance.Mode = balance.Online // gates validation; steps driven manually
	s := mustNew(t, cfg)
	s.Run(2)
	if got, want := s.CutsX(), []int{0, 8, 16, 24, 32}; !slices.Equal(got, want) {
		t.Fatalf("fixture cuts = %v, want uniform %v", got, want)
	}
	reshapeKeepsState(t, s, []int{0, 17, 19, 21, 32})
	if s.Reports()[1].Particles == 0 {
		t.Fatal("the disjoint rank received no particles: fixture does not exercise the transfer")
	}
	for i := 0; i < 3; i++ {
		s.Step()
		if e := s.Energy(); math.IsNaN(e.Total) || math.IsInf(e.Total, 0) || e.Total <= 0 {
			t.Fatalf("step %d after jump: energy %+v", i+1, e)
		}
	}
	for _, fc := range murFaces {
		t.Run(fc.name, func(t *testing.T) { reshapeWallBox(t, fc.bc, []int{0, 5, 6, 7, 8}) })
	}
}

// murFaces are wallBox's faces with a Mur wall: "mur" on both x faces,
// "mixed" on the x-low and z-high faces, with conductors on the x-high
// and z-low ones.
var murFaces = []struct {
	name string
	bc   [field.NumFaces]field.BC
}{
	{"mur", [field.NumFaces]field.BC{field.Absorbing, field.Absorbing, field.Periodic, field.Periodic, field.Periodic, field.Periodic}},
	{"mixed", [field.NumFaces]field.BC{field.Absorbing, field.Conductor, field.Periodic, field.Periodic, field.Conductor, field.Absorbing}},
}

// reshapeWallBox runs wallBox on bc as x-slabs, one per cut interval
// of target, for five steps, reshapes it to target (reshapeKeepsState)
// and steps on three.
func reshapeWallBox(t *testing.T, bc [field.NumFaces]field.BC, target []int) {
	cfg := wallBox(bc, len(target)-1)
	cfg.Balance = BalanceConfig{Mode: balance.Online, Threshold: math.Inf(1)} // the cuts move by hand only
	s := mustNew(t, cfg)
	s.Run(5)
	nonzero := 0
	for _, row := range murSection(s.Ranks[len(s.Ranks)-1]) {
		for _, x := range row {
			if x != 0 {
				nonzero++
			}
		}
	}
	if nonzero == 0 {
		t.Fatal("the wall rank's Mur section is zero: the fixture does not exercise it")
	}
	t.Logf("%d nonzero floats in the wall rank's Mur section", nonzero)
	reshapeKeepsState(t, s, target)
	s.Run(3)
	if e := s.Energy(); math.IsNaN(e.Total) || math.IsInf(e.Total, 0) || e.Total <= 0 {
		t.Fatalf("energy after reshape continuation: %+v", e)
	}
}

// reshapeKeepsState reshapes s to target and checks that the state
// stayed: the digest, which covers Mur's section, the particle count,
// and the wall rank's Mur nodes on the x-high wall plane (each Mur
// row's last node), which never leave that rank.
func reshapeKeepsState(t *testing.T, s *Simulation, target []int) {
	t.Helper()
	wallMur := func() []uint32 {
		var bits []uint32
		for _, row := range murSection(s.Ranks[len(s.Ranks)-1]) {
			bits = append(bits, math.Float32bits(row[len(row)-1]))
		}
		return bits
	}
	dig, n, mur := s.CanonicalDigest(), s.TotalParticles(), wallMur()
	s.each(func(rs *RankSim) { rs.Rank.reshapeX(&rs.Cfg, target) })
	if got := s.CutsX(); !slices.Equal(got, target) {
		t.Fatalf("cuts after reshape = %v, want %v", got, target)
	}
	if got := s.CanonicalDigest(); got != dig {
		t.Errorf("reshape changed the digest: %016x != %016x", got, dig)
	}
	if got := s.TotalParticles(); got != n {
		t.Errorf("reshape changed the particle count: %d != %d", got, n)
	}
	if got := wallMur(); !slices.Equal(got, mur) {
		t.Errorf("reshape changed the wall rank's %d Mur nodes on the wall", len(mur))
	}
}

// TestReshapeKeepsSortPasses: a reshape rebuilds each rank's sort
// workspace, and the passes the old workspace counted must survive in
// the report. On `vpic -deck spike -ranks 2 -nx 64 -ppc 16 -steps 60
// -balance-interval 30`'s shape the step-30 reshape falls between the
// step-20 and step-40 sorts. The spike's rank sorts at both; its
// neighbour holds one particle at step 20 and dozens at step 40, so it
// sorts once (the load itself sorts nothing). Balancing off and online
// must both report 3 sorts.
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
	if slices.Equal(cutsOn, cutsOff) {
		t.Fatalf("the online run never reshaped: cuts %v", cutsOn)
	}
	if off != 3 || on != off {
		t.Fatalf("sorts: %d with balancing off, %d online (cuts %v); want 3 both", off, on, cutsOn)
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

	if slices.Equal(sOn.CutsX(), sOff.CutsX()) {
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
