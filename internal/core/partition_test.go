package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"govpic/internal/balance"
	"govpic/internal/field"
	"govpic/internal/particle"
	"govpic/internal/push"
)

// oddShell marks the odd voxels of nv as boundary shell.
func oddShell(nv int) []bool {
	shell := make([]bool, nv)
	for v := 1; v < nv; v += 2 {
		shell[v] = true
	}
	return shell
}

// checkPartition partitions a buffer of particles in the given voxels
// (each tagged by its index in W) and asserts the partition's contract:
// interior before the returned cut and shell after it, the same
// particles as before, and only misplaced particles moved — every
// shell particle found before the cut swapped with an interior one
// found after it, so exactly twice that many slots changed.
func checkPartition(t *testing.T, shell []bool, voxels []int32) {
	t.Helper()
	buf := particle.NewBuffer(len(voxels))
	for i, v := range voxels {
		buf.Append(particle.Particle{Voxel: v, Ux: float32(v) / 8, W: float32(i)})
	}
	before := buf.All()
	cut := partitionBoundary(shell, buf)
	after := buf.All()

	interior := len(voxels)
	if shell != nil {
		interior = 0
		for _, v := range voxels {
			if !shell[v] {
				interior++
			}
		}
	}
	if cut != interior {
		t.Fatalf("cut %d, want the interior count %d", cut, interior)
	}
	misplaced, changed := 0, 0
	seen := make([]bool, len(voxels))
	for i, p := range after {
		if inShell := shell != nil && shell[p.Voxel]; inShell != (i >= cut) {
			t.Fatalf("slot %d (voxel %d) is on the wrong side of cut %d", i, p.Voxel, cut)
		}
		id := int(p.W)
		if id < 0 || id >= len(before) || seen[id] || before[id] != p {
			t.Fatalf("slot %d holds %+v, not a distinct particle of the input", i, p)
		}
		seen[id] = true
		if p != before[i] {
			changed++
		}
		if shell != nil && i < cut && shell[before[i].Voxel] {
			misplaced++
		}
	}
	if changed != 2*misplaced {
		t.Fatalf("%d slots changed, want 2 × %d misplaced", changed, misplaced)
	}
}

func TestPartitionBoundary(t *testing.T) {
	const nv = 16
	repeat := func(n int, v int32) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	alternating := func(n int) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(i % nv)
		}
		return out
	}
	type partitionCase struct {
		name   string
		shell  []bool
		voxels []int32
	}
	cases := []partitionCase{
		{"empty", oddShell(nv), nil},
		{"nil shell", nil, alternating(37)},
		{"all shell", oddShell(nv), repeat(29, 3)},
		{"all interior", oddShell(nv), repeat(29, 4)},
		{"already partitioned", oddShell(nv), append(repeat(21, 2), repeat(11, 5)...)},
		{"shell only at the front", oddShell(nv), append(repeat(5, 7), repeat(19, 6)...)},
		{"one of each, swapped", oddShell(nv), []int32{1, 0}},
		{"partial last block", oddShell(nv), alternating(3*particle.Lanes + 5)},
		{"shell tail in a partial block", oddShell(nv), append(alternating(particle.Lanes+3), repeat(4, 2)...)},
	}
	rng := rand.New(rand.NewSource(44))
	for r := 0; r < 8; r++ {
		voxels := make([]int32, rng.Intn(300))
		for i := range voxels {
			voxels[i] = int32(rng.Intn(nv))
		}
		cases = append(cases, partitionCase{"random", oddShell(nv), voxels})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkPartition(t, c.shell, c.voxels) })
	}
}

// FuzzPartitionBoundary checks the partition's contract on n particles
// whose classes follow the bits of pattern (cycled), each in one of 16
// voxels.
func FuzzPartitionBoundary(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(29), []byte{0xff})
	f.Add(uint16(29), []byte{0x00})
	f.Add(uint16(64), []byte{0x0f, 0xf0})
	f.Add(uint16(13), []byte{0xaa, 0x55, 0x01})
	f.Fuzz(func(t *testing.T, n uint16, pattern []byte) {
		if len(pattern) == 0 {
			pattern = []byte{0}
		}
		voxels := make([]int32, int(n)%2048)
		for i := range voxels {
			bit := int32(pattern[(i/8)%len(pattern)]>>(i%8)) & 1
			voxels[i] = 2*int32(i%8) + bit
		}
		checkPartition(t, oddShell(16), voxels)
	})
}

// classVoxel draws one of oddShell(16)'s voxels of the given class.
func classVoxel(rng *rand.Rand, inShell bool) int32 {
	v := 2 * int32(rng.Intn(8))
	if inShell {
		v++
	}
	return v
}

// stepRates shapes one step's buffer edits, each a percentage.
type stepRates struct {
	move, remove, toShell uint8 // movers per slot; of those, removed; of the rest, landing in the shell
	arrivals, arrShell    uint8 // appended particles (a count); of those, in the shell
}

// finishPhase edits buf the way one push phase of the boundary-first step
// does — movers among slots [lo, hi), finished in descending slot order,
// each removed (RemoveSwap) or given a new voxel — then collects the
// phase's candidates from the movers split over a few blocks.
func finishPhase(rng *rand.Rand, r stepRates, p *partState, shell []bool, buf *particle.Buffer, lo, hi int, shellPhase bool) {
	var slots []int32
	for s := lo; s < hi; s++ {
		if rng.Intn(100) < int(r.move) {
			slots = append(slots, int32(s))
		}
	}
	for k := len(slots) - 1; k >= 0; k-- {
		s := int(slots[k])
		if rng.Intn(100) < int(r.remove) {
			buf.RemoveSwap(s)
			continue
		}
		pt := buf.At(s)
		pt.Voxel = classVoxel(rng, rng.Intn(100) < int(r.toShell))
		buf.Set(s, pt)
	}
	blocks := make([]*push.BlockState, 1+rng.Intn(3))
	for b := range blocks {
		blocks[b] = new(push.BlockState)
	}
	for k, s := range slots {
		bs := blocks[k*len(blocks)/len(slots)]
		bs.Movers = append(bs.Movers, particle.Mover{Idx: s})
	}
	p.collect(shell, buf, blocks, shellPhase)
}

// checkCandidateRounds partitions a buffer of n particles (shellPct of
// them in the shell) by the full scan, then runs rounds of step-shaped
// edits, each followed by the candidate partition, and requires every
// round's buffer bytes and cut to equal partitionBoundary's on a copy.
func checkCandidateRounds(t *testing.T, seed int64, n int, shellPct uint8, r stepRates, rounds int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	shell := oddShell(16)
	buf := particle.NewBuffer(n)
	id := 0
	add := func(inShell bool) {
		buf.Append(particle.Particle{Voxel: classVoxel(rng, inShell), Ux: rng.Float32(), W: float32(id)})
		id++
	}
	for i := 0; i < n; i++ {
		add(rng.Intn(100) < int(shellPct))
	}
	p := partState{stale: true}
	p.partition(shell, buf)
	ref := particle.NewBuffer(0)
	for round := 0; round < rounds; round++ {
		cut := p.cut
		finishPhase(rng, r, &p, shell, buf, cut, buf.N(), true)
		finishPhase(rng, r, &p, shell, buf, 0, cut, false)
		for k := 0; k < int(r.arrivals); k++ {
			add(rng.Intn(100) < int(r.arrShell))
		}
		ref.CopyFrom(buf)
		want := partitionBoundary(shell, ref)
		p.partition(shell, buf)
		if p.cut != want {
			t.Fatalf("round %d: candidate cut %d, the full scan's %d (old cut %d, tail %d, N %d)", round, p.cut, want, cut, p.tail, buf.N())
		}
		if buf.N() != ref.N() || !reflect.DeepEqual(buf.Blk, ref.Blk) {
			t.Fatalf("round %d: the candidate partition's bytes differ from the full scan's", round)
		}
	}
}

// FuzzCandidatePartition: after any step-shaped edits — voxel changes
// and descending RemoveSwaps at recorded mover slots on either side of
// the cut, appends past the tail — the candidate partition leaves the
// buffer byte-identical to partitionBoundary's full scan, with the same
// cut.
func FuzzCandidatePartition(f *testing.F) {
	// seed, n, shell %, mover %, removed %, to-shell %, arrivals, arrivals in shell %
	f.Add(int64(1), uint16(200), uint8(30), uint8(30), uint8(0), uint8(90), uint8(0), uint8(0))       // cut moves left
	f.Add(int64(2), uint16(200), uint8(50), uint8(30), uint8(0), uint8(5), uint8(20), uint8(0))       // cut moves right
	f.Add(int64(3), uint16(60), uint8(10), uint8(90), uint8(80), uint8(50), uint8(3), uint8(50))      // N falls below the old cut
	f.Add(int64(4), uint16(100), uint8(0), uint8(20), uint8(10), uint8(0), uint8(5), uint8(0))        // empty shell side
	f.Add(int64(5), uint16(100), uint8(100), uint8(30), uint8(20), uint8(100), uint8(10), uint8(100)) // all shell
	f.Add(int64(6), uint16(0), uint8(50), uint8(50), uint8(50), uint8(50), uint8(12), uint8(50))      // empty start, arrivals only
	f.Add(int64(7), uint16(300), uint8(40), uint8(50), uint8(10), uint8(40), uint8(30), uint8(60))    // everything at once
	f.Fuzz(func(t *testing.T, seed int64, n uint16, shellPct, move, remove, toShell, arrivals, arrShell uint8) {
		r := stepRates{move: move % 101, remove: remove % 101, toShell: toShell % 101, arrivals: arrivals, arrShell: arrShell % 101}
		checkCandidateRounds(t, seed, int(n)%1024, shellPct%101, r, 4)
	})
}

// TestCandidatePartitionMatchesFullScan runs two copies of each world:
// one partitions from candidates as every step does, the other has every
// species marked stale before each Step, so it partitions by the full
// scan. Their state CRCs must agree after every step — through sorts,
// unsorted species, y-face shells, interior absorptions pulling shell
// particles into interior slots, reshapes and a restore at a non-sort
// step — and the candidate copy must really have seen candidates.
func TestCandidatePartitionMatchesFullScan(t *testing.T) {
	const steps = 120
	twoSpecies := thermalBox(16, 4, 4, 8, 2)
	pos := twoSpecies.Species[0]
	pos.Name, pos.Q, pos.SortInterval = "positron", 1, 0
	load := *pos.Load
	load.Uth, load.Seed = [3]float64{0.1, 0.1, 0.1}, 7
	pos.Load = &load
	twoSpecies.Species = append(twoSpecies.Species, pos)

	walls := thermalBox(32, 2, 2, 16, 2)
	walls.Species[0].Load.Uth = [3]float64{0.1, 0.1, 0.1}
	walls.FieldBC[field.XLo], walls.FieldBC[field.XHi] = field.Absorbing, field.Absorbing
	walls.ParticleBC[field.XLo], walls.ParticleBC[field.XHi] = push.Absorb, push.Absorb

	balanced := spikePlasma(32, 4, 4, 8, 4)
	balanced.Balance = BalanceConfig{Mode: balance.Online, Interval: 2, Threshold: 1.15}

	cases := []struct {
		name    string
		cfg     Config
		restore bool // checkpoint after step 30, restore it after step 37
	}{
		{"2-rank x-split", thermalBox(16, 4, 4, 8, 2), false},
		{"2x2x1", thermalBox(8, 8, 4, 8, 4), false},
		{"two species, one unsorted", twoSpecies, false},
		{"absorbing x walls", walls, false},
		{"online balance", balanced, false},
		{"restore at a non-sort step", thermalBox(16, 4, 4, 8, 2), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cand, full := mustNew(t, c.cfg), mustNew(t, c.cfg)
			n0, cuts0 := cand.TotalParticles(), cand.CutsX()
			var ckpt []byte
			listed, arrived := 0, 0
			for i := 0; i < steps; i++ {
				if c.restore && i == 30 {
					ckpt = checkpointBytes(t, cand)
				}
				if c.restore && i == 37 {
					for _, s := range []*Simulation{cand, full} {
						if err := s.Restore(bytes.NewReader(ckpt)); err != nil {
							t.Fatal(err)
						}
					}
				}
				cand.Step()
				for _, rk := range full.Ranks {
					rk.markStale()
				}
				full.Step()
				if a, b := cand.StateCRCs(), full.StateCRCs(); !equalCRCs(a, b) {
					t.Fatalf("step %d: candidate CRCs %08x, full scan %08x", cand.StepCount(), a, b)
				}
				for _, rk := range cand.Ranks {
					for si, p := range rk.part {
						listed += len(p.inner) + len(p.outer)
						arrived += rk.Species[si].Buf.N() - p.tail
					}
				}
			}
			if listed == 0 || arrived == 0 {
				t.Fatalf("vacuous: %d candidates and %d arrivals over %d steps", listed, arrived, steps)
			}
			if c.cfg.ParticleBC[field.XLo] == push.Absorb && cand.TotalParticles() == n0 {
				t.Fatal("vacuous: no particle was absorbed")
			}
			if c.cfg.Balance.Mode == balance.Online && slices.Equal(cand.CutsX(), cuts0) {
				t.Fatal("vacuous: the balancer never moved a cut")
			}
		})
	}
}
