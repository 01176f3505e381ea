package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"govpic/internal/balance"
	"govpic/internal/diag"
	"govpic/internal/field"
	"govpic/internal/laser"
	"govpic/internal/loader"
	"govpic/internal/push"
)

// periodicPlasma builds a quasi-1D periodic electron plasma deck with an
// immobile neutralizing background.
func periodicPlasma(nx int, n0, uth float64, ppc int, nRanks int) Config {
	allWrap := [6]push.Action{push.Wrap, push.Wrap, push.Wrap, push.Wrap, push.Wrap, push.Wrap}
	return Config{
		NX: nx, NY: 1, NZ: 1,
		DX: 0.5, DY: 1, DZ: 1,
		DT:     0.2,
		NRanks: nRanks,
		// All periodic (the zero value of field.BC).
		ParticleBC: allWrap,
		Species: []SpeciesConfig{{
			Name: "electron", Q: -1, M: 1, SortInterval: 10,
			Load: &loader.Params{
				Profile: loader.Uniform(n0), PPC: ppc, Nref: n0,
				Uth: [3]float64{uth, uth, uth}, Seed: 11,
			},
		}},
		NeutralizingBackground: true,
	}
}

func TestConfigValidation(t *testing.T) {
	good := periodicPlasma(16, 0.25, 0.01, 8, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.DT = 10
	if bad.Validate() == nil {
		t.Error("accepted DT above Courant limit")
	}
	bad = good
	bad.Species = nil
	if bad.Validate() == nil {
		t.Error("accepted empty species list")
	}
	bad = good
	bad.Species = append([]SpeciesConfig{}, good.Species...)
	bad.Species = append(bad.Species, bad.Species[0])
	if bad.Validate() == nil {
		t.Error("accepted duplicate species name")
	}
	bad = good
	bad.NX = 0
	if bad.Validate() == nil {
		t.Error("accepted zero cells")
	}
	bad = good
	bad.FieldBC[field.YLo], bad.FieldBC[field.YHi] = field.Remote, field.Remote
	if bad.Validate() == nil {
		t.Error("accepted a Remote field BC")
	}
	// A reshape carries the checkpoint's rows, Mur's included, so any
	// field boundary balances; an x-slab needs a plane.
	for _, bc := range []field.BC{field.Absorbing, field.Conductor} {
		walls := good
		walls.FieldBC[field.XLo], walls.FieldBC[field.XHi] = bc, bc
		walls.Balance.Mode = balance.Online
		if err := walls.Validate(); err != nil {
			t.Errorf("refused balancing on an x-%v deck: %v", bc, err)
		}
	}
	mixed := good
	mixed.FieldBC = [field.NumFaces]field.BC{field.Absorbing, field.Conductor, field.Periodic, field.Periodic, field.Conductor, field.Absorbing}
	mixed.Balance.Mode = balance.Online
	if err := mixed.Validate(); err != nil {
		t.Errorf("refused balancing on a mixed deck: %v", err)
	}
	mixed.NRanks = mixed.NX + 1
	if mixed.Validate() == nil {
		t.Error("accepted balancing with NX < NRanks")
	}
}

func TestNewLoadsParticles(t *testing.T) {
	s, err := New(periodicPlasma(16, 0.25, 0.01, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.TotalParticles(); got != 16*8 {
		t.Fatalf("loaded %d particles, want %d", got, 16*8)
	}
}

// TestPlasmaOscillation is the canonical PIC validation: a cold plasma
// with a small sinusoidal velocity perturbation rings at the plasma
// frequency ωpe = sqrt(n/ncr).
func TestPlasmaOscillation(t *testing.T) {
	n0 := 0.25 // ωpe = 0.5
	cfg := periodicPlasma(32, n0, 0.0005, 64, 1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Seed a standing velocity perturbation u = A·sin(kx), mode 1.
	g := s.Ranks[0].D.G
	lx, _, _ := g.Extent()
	k := 2 * math.Pi / lx
	buf := s.Ranks[0].Species[0].Buf
	for i := 0; i < buf.N(); i++ {
		p := buf.At(i)
		x, _, _ := g.Position(int(p.Voxel), p.Dx, p.Dy, p.Dz)
		p.Ux += float32(0.01 * math.Sin(k*x))
		buf.Set(i, p)
	}

	probe := g.Voxel(8, 1, 1)
	prev := float64(s.Ranks[0].D.F.Ex[probe])
	var crossT []float64
	for step := 0; step < 500 && len(crossT) < 9; step++ {
		s.Step()
		cur := float64(s.Ranks[0].D.F.Ex[probe])
		if (prev < 0 && cur >= 0) || (prev > 0 && cur <= 0) {
			crossT = append(crossT, s.Time())
		}
		prev = cur
	}
	if len(crossT) < 9 {
		t.Fatalf("only %d zero crossings seen", len(crossT))
	}
	period := 2 * (crossT[8] - crossT[0]) / 8
	omega := 2 * math.Pi / period
	wpe := math.Sqrt(n0)
	if math.Abs(omega-wpe)/wpe > 0.03 {
		t.Fatalf("plasma frequency = %g, want %g (±3%%)", omega, wpe)
	}
}

func TestEnergyConservationThermal(t *testing.T) {
	cfg := periodicPlasma(32, 0.2, 0.05, 64, 1)
	cfg.CleanInterval = 20
	cfg.CleanPasses = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e0 := s.Energy()
	s.Run(300)
	e1 := s.Energy()
	drift := math.Abs(e1.Total-e0.Total) / e0.Total
	if drift > 0.01 {
		t.Fatalf("energy drifted %.3g over 300 steps (from %g to %g)", drift, e0.Total, e1.Total)
	}
	if s.TotalParticles() != 32*64 {
		t.Fatalf("lost particles: %d", s.TotalParticles())
	}
}

func TestGaussLawMaintained(t *testing.T) {
	cfg := periodicPlasma(16, 0.2, 0.08, 32, 1)
	cfg.CleanInterval = 10
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(100)
	// Recompute div E − ρ (with background) on rank 0.
	rk := s.Ranks[0]
	clear(rk.rho)
	rk.depositAllRho(rk.rho)
	if rk.rho0 != nil {
		for i, v := range rk.rho0 {
			rk.rho[i] += v
		}
	}
	_, errRMS := rk.D.F.DivEError(rk.rho, rk.scratch)
	// Scale: ρ itself is ~n0 = 0.2.
	if errRMS > 0.01 {
		t.Fatalf("Gauss law error RMS = %g after 100 steps with cleaning", errRMS)
	}
}

// TestDecompositionEquivalence: the same deck run on 1, 2 and 4 ranks
// must produce the same physics (identical particle counts, energies
// equal to float32 accumulation tolerance).
func TestDecompositionEquivalence(t *testing.T) {
	run := func(nRanks int) ([]float64, int) {
		cfg := periodicPlasma(32, 0.2, 0.05, 32, nRanks)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(25)
		e := s.Energy()
		return []float64{e.EField, e.BField, e.Kinetic[0]}, s.TotalParticles()
	}
	e1, n1 := run(1)
	e2, n2 := run(2)
	e4, n4 := run(4)
	if n1 != n2 || n1 != n4 {
		t.Fatalf("particle counts differ: %d / %d / %d", n1, n2, n4)
	}
	for i := range e1 {
		for _, other := range [][]float64{e2, e4} {
			den := math.Max(math.Abs(e1[i]), 1e-12)
			if math.Abs(e1[i]-other[i])/den > 1e-4 {
				t.Fatalf("energy component %d differs across decompositions: %v vs %v", i, e1, other)
			}
		}
	}
}

func TestTwoSpeciesNeutralStart(t *testing.T) {
	cfg := periodicPlasma(16, 0.2, 0.02, 16, 1)
	cfg.NeutralizingBackground = false
	cfg.Species = append(cfg.Species, SpeciesConfig{
		Name: "proton", Q: 1, M: 1836, SortInterval: 50,
		NeutralizePrevious: true,
		Load:               &loader.Params{Uth: [3]float64{0.0005, 0.0005, 0.0005}, Seed: 12},
	})
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalParticles() != 2*16*16 {
		t.Fatalf("particles = %d", s.TotalParticles())
	}
	// Exactly neutral start: rho ≈ 0 everywhere.
	rk := s.Ranks[0]
	clear(rk.rho)
	rk.depositAllRho(rk.rho)
	for iz := 1; iz <= rk.D.G.NZ; iz++ {
		for iy := 1; iy <= rk.D.G.NY; iy++ {
			for ix := 1; ix <= rk.D.G.NX; ix++ {
				if r := rk.rho[rk.D.G.Voxel(ix, iy, iz)]; math.Abs(float64(r)) > 1e-5 {
					t.Fatalf("non-neutral start: rho(%d,%d,%d) = %g", ix, iy, iz, r)
				}
			}
		}
	}
	s.Run(50)
	if s.TotalParticles() != 2*16*16 {
		t.Fatal("lost particles in two-species run")
	}
}

// roundTripDecks are the checkpoint round trips' worlds on nRanks: the
// periodic plasma, and the absorbing-x LPI deck with cleaning, whose
// high x wall's Mur plane the checkpoint must carry. Each resumes at
// step at and runs to step end.
func roundTripDecks(nRanks int) []struct {
	name    string
	cfg     Config
	at, end int
} {
	lpi := lpiWalls(nRanks)
	lpi.CleanInterval = 7
	return []struct {
		name    string
		cfg     Config
		at, end int
	}{
		{"periodic", periodicPlasma(16, 0.2, 0.05, 16, nRanks), 10, 20},
		{"mur", lpi, 40, 60},
	}
}

// TestCheckpointRoundTrip: a world restored from a checkpoint steps on
// to the uninterrupted world's state CRCs and energies.
func TestCheckpointRoundTrip(t *testing.T) {
	for _, tc := range roundTripDecks(1) {
		s, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(tc.at)
		var buf bytes.Buffer
		if err := s.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		s.Run(tc.end - tc.at)
		want := s.Energy()

		s2, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
		if s2.StepCount() != tc.at {
			t.Fatalf("%s: restored step = %d, want %d", tc.name, s2.StepCount(), tc.at)
		}
		s2.Run(tc.end - tc.at)
		got := s2.Energy()
		if got.Total != want.Total || got.EField != want.EField {
			t.Fatalf("%s: restored run diverged: %+v vs %+v", tc.name, got, want)
		}
		if got, want := s2.StateCRCs(), s.StateCRCs(); !equalCRCs(got, want) {
			t.Fatalf("%s: restored run ends on CRCs %08x, want %08x", tc.name, got, want)
		}
	}
}

func TestCheckpointRejectsMismatch(t *testing.T) {
	s, _ := New(periodicPlasma(16, 0.2, 0.05, 8, 1))
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	other, _ := New(periodicPlasma(32, 0.2, 0.05, 8, 1))
	if err := other.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("accepted mismatched checkpoint")
	}
	if err := other.Restore(bytes.NewReader([]byte("garbage data here..."))); err == nil {
		t.Fatal("accepted garbage checkpoint")
	}
}

func TestFlopsAccounting(t *testing.T) {
	cfg := periodicPlasma(16, 0.2, 0.01, 8, 1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(5)
	wantPushes := int64(5 * 16 * 8)
	tot := SumReports(s.Reports())
	if tot.Pushed != wantPushes {
		t.Fatalf("pushed %d, want %d", tot.Pushed, wantPushes)
	}
	if tot.Flops < wantPushes*push.FlopsPerPush {
		t.Fatal("flop count below minimum")
	}
}

// TestPerfBreakdownPopulated: a multi-rank run records section time,
// its traffic by class, and the interior push its migrants flew behind
// as overlap; a one-rank run posts no migrant and receives nothing, so
// it books neither overlap nor wait.
func TestPerfBreakdownPopulated(t *testing.T) {
	s, err := New(periodicPlasma(16, 0.2, 0.01, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(10)
	tot := SumReports(s.Reports())
	if tot.Total() == 0 {
		t.Fatal("no time recorded")
	}
	var sent int64
	for _, c := range tot.Classes {
		sent += c.Bytes
	}
	if sent == 0 {
		t.Fatal("no communication recorded on 2 ranks")
	}
	if tot.CommOverlap() <= 0 {
		t.Error("no comm overlap recorded on 2 ranks")
	}
	if tot.CommWait() < 0 {
		t.Errorf("negative comm wait %v on 2 ranks", tot.CommWait())
	}

	one, err := New(periodicPlasma(16, 0.2, 0.01, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	one.Run(10)
	if tot := SumReports(one.Reports()); tot.CommWait() != 0 || tot.CommOverlap() != 0 {
		t.Errorf("1 rank booked comm wait %v and overlap %v, want 0 and 0", tot.CommWait(), tot.CommOverlap())
	}
}

func TestLaserVacuumRun(t *testing.T) {
	a0 := 0.02
	cfg := Config{
		NX: 240, NY: 1, NZ: 1,
		DX: 0.2, DY: 1, DZ: 1,
		DT: 0.19,
		FieldBC: [6]field.BC{
			field.XLo: field.Absorbing, field.XHi: field.Absorbing,
			field.YLo: field.Periodic, field.YHi: field.Periodic,
			field.ZLo: field.Periodic, field.ZHi: field.Periodic,
		},
		ParticleBC: [6]push.Action{
			field.XLo: push.Absorb, field.XHi: push.Absorb,
			field.YLo: push.Wrap, field.YHi: push.Wrap,
			field.ZLo: push.Wrap, field.ZHi: push.Wrap,
		},
		Species: []SpeciesConfig{{Name: "electron", Q: -1, M: 1}},
		Lasers:  []*laser.Antenna{{XGlobal: 2, Omega: 1, A0: a0, RampTime: 10}},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Run long enough for the ramped wave front to pass the probe and
	// reach steady state, then time-average the flux over a full cycle.
	s.Run(int(40 / cfg.DT))
	var fw, bw float64
	cycleSteps := int(2 * math.Pi / cfg.DT)
	probe := 1 + int(24/cfg.DX) // the x-node plane at x = 24
	for i := 0; i < cycleSteps; i++ {
		s.Step()
		f, b, _, _ := diag.PoyntingSplit(s.Ranks[0].D.F, probe)
		fw += f
		bw += b
	}
	fw /= float64(cycleSteps)
	bw /= float64(cycleSteps)
	// Forward flux of an a0 wave: ⟨E²⟩ = a0²/2.
	want := a0 * a0 / 2
	if math.Abs(fw-want)/want > 0.1 {
		t.Fatalf("forward flux %g, want %g ±10%%", fw, want)
	}
	if bw > 0.02*fw {
		t.Fatalf("vacuum run shows backward flux %g (forward %g)", bw, fw)
	}
}

// lpiWalls is a laser-driven slab between Mur-absorbing x walls on
// nRanks: rank 0 owns a local Mur wall plus a remote face when split.
func lpiWalls(nRanks int) Config {
	return Config{
		NX: 64, NY: 1, NZ: 1,
		DX: 0.25, DY: 1, DZ: 1,
		DT:     0.23,
		NRanks: nRanks,
		FieldBC: [6]field.BC{
			field.XLo: field.Absorbing, field.XHi: field.Absorbing,
			field.YLo: field.Periodic, field.YHi: field.Periodic,
			field.ZLo: field.Periodic, field.ZHi: field.Periodic,
		},
		ParticleBC: [6]push.Action{
			field.XLo: push.Absorb, field.XHi: push.Absorb,
			field.YLo: push.Wrap, field.YHi: push.Wrap,
			field.ZLo: push.Wrap, field.ZHi: push.Wrap,
		},
		Species: []SpeciesConfig{{
			Name: "electron", Q: -1, M: 1, SortInterval: 10,
			Load: &loader.Params{
				Profile: loader.Slab(0.1, 4, 12, 2), PPC: 32, Nref: 0.1,
				Uth: [3]float64{0.07, 0.07, 0.07}, Seed: 77,
			},
		}},
		Lasers:                 []*laser.Antenna{{XGlobal: 0.5, Omega: 1, A0: 0.03, RampTime: 10}},
		NeutralizingBackground: true,
	}
}

// TestLPIDecompositionEquivalence checks the bounded (Mur-absorbing)
// geometry across decompositions: rank 0 owns a local Mur wall plus a
// remote face, the hardest mixed case.
func TestLPIDecompositionEquivalence(t *testing.T) {
	run := func(nRanks int) []float64 {
		s, err := New(lpiWalls(nRanks))
		if err != nil {
			t.Fatal(err)
		}
		s.Run(60)
		e := s.Energy()
		return []float64{e.EField, e.BField, e.Kinetic[0], float64(s.TotalParticles())}
	}
	e1 := run(1)
	e2 := run(2)
	for i := range e1 {
		den := math.Max(math.Abs(e1[i]), 1e-12)
		if math.Abs(e1[i]-e2[i])/den > 2e-4 {
			t.Fatalf("bounded-domain decomposition mismatch at component %d: %v vs %v", i, e1, e2)
		}
	}
}

// TestAbsorbedEnergyBudget: with absorbing walls, the energy leaving
// with absorbed particles must account for the drop in total energy.
func TestAbsorbedEnergyBudget(t *testing.T) {
	cfg := Config{
		NX: 32, NY: 1, NZ: 1,
		DX: 0.5, DY: 1, DZ: 1,
		DT: 0.2,
		FieldBC: [6]field.BC{
			field.XLo: field.Absorbing, field.XHi: field.Absorbing,
			field.YLo: field.Periodic, field.YHi: field.Periodic,
			field.ZLo: field.Periodic, field.ZHi: field.Periodic,
		},
		ParticleBC: [6]push.Action{
			field.XLo: push.Absorb, field.XHi: push.Absorb,
			field.YLo: push.Wrap, field.YHi: push.Wrap,
			field.ZLo: push.Wrap, field.ZHi: push.Wrap,
		},
		Species: []SpeciesConfig{{
			Name: "electron", Q: -1, M: 1,
			Load: &loader.Params{
				Profile: loader.Uniform(0.05), PPC: 64, Nref: 0.05,
				Uth: [3]float64{0.1, 0.1, 0.1}, Seed: 5,
			},
		}},
		NeutralizingBackground: true,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e0 := s.Energy().Total
	s.Run(150)
	e1 := s.Energy().Total
	lost := s.LostEnergy()
	if s.TotalParticles() == 32*64 {
		t.Fatal("no particles were absorbed; test is vacuous")
	}
	if lost <= 0 {
		t.Fatal("no absorbed energy recorded")
	}
	// Budget: initial = remaining + absorbed (fields radiated through
	// Mur and space-charge work make this approximate).
	imbalance := math.Abs(e0-(e1+lost)) / e0
	if imbalance > 0.05 {
		t.Fatalf("energy budget open by %.1f%%: e0=%g e1=%g lost=%g", 100*imbalance, e0, e1, lost)
	}
}

// TestCheckpointRoundTripMultiRank: a 2-rank world's checkpoint carries
// its history (CheckpointHistory and Restore both return it), and the
// resumed world reaches the uninterrupted one's state CRCs, energy and
// history.
func TestCheckpointRoundTripMultiRank(t *testing.T) {
	// run steps n times, sampling after each step.
	run := func(s *Simulation, n int) {
		for i := 0; i < n; i++ {
			s.Step()
			Collect(s, (*RankSim).Sample)
		}
	}
	for _, tc := range roundTripDecks(2) {
		s, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		Collect(s, (*RankSim).Sample)
		run(s, tc.at)
		var buf bytes.Buffer
		if err := s.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		atCheckpoint := s.History()
		if h, err := CheckpointHistory(bytes.NewReader(buf.Bytes())); err != nil || !reflect.DeepEqual(h, atCheckpoint) {
			t.Fatalf("%s: CheckpointHistory: %d samples, err %v; want the %d written", tc.name, len(h.Samples), err, len(atCheckpoint.Samples))
		}
		run(s, tc.end-tc.at)
		want := s.Energy()

		s2, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s2.History(), atCheckpoint) {
			t.Fatalf("%s: restored history differs from the one checkpointed", tc.name)
		}
		run(s2, tc.end-tc.at)
		got := s2.Energy()
		if got.Total != want.Total {
			t.Fatalf("%s: multi-rank restore diverged: %g vs %g", tc.name, got.Total, want.Total)
		}
		if got, want := s2.StateCRCs(), s.StateCRCs(); !equalCRCs(got, want) {
			t.Fatalf("%s: restored run ends on CRCs %08x, want %08x", tc.name, got, want)
		}
		if !reflect.DeepEqual(s2.History(), s.History()) {
			t.Fatalf("%s: resumed history differs from the uninterrupted one", tc.name)
		}
	}
}
