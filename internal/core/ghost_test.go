package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"govpic/internal/balance"
	"govpic/internal/domain"
	"govpic/internal/field"
	"govpic/internal/laser"
	"govpic/internal/loader"
	"govpic/internal/mp"
	"govpic/internal/push"
)

// wallBox is an 8×8×8 thermal plasma on the given field faces, with
// cleaning every three steps. A wall face absorbs particles when it is
// Absorbing (Mur) and reflects them when it is a conductor. With an
// x-low Mur wall an antenna drives light through the box.
func wallBox(bc [field.NumFaces]field.BC, nRanks int) Config {
	var pbc [field.NumFaces]push.Action
	for face, b := range bc {
		switch b {
		case field.Absorbing:
			pbc[face] = push.Absorb
		case field.Conductor:
			pbc[face] = push.Reflect
		}
	}
	cfg := Config{
		NX: 8, NY: 8, NZ: 8,
		DX: 0.5, DY: 0.5, DZ: 0.5,
		DT:      0.2,
		NRanks:  nRanks,
		Workers: 1,
		FieldBC: bc, ParticleBC: pbc,
		Species: []SpeciesConfig{{
			Name: "electron", Q: -1, M: 1, SortInterval: 5,
			Load: &loader.Params{
				Profile: loader.Uniform(0.2), PPC: 2, Nref: 0.2,
				Uth: [3]float64{0.1, 0.1, 0.1}, Seed: 71,
			},
		}},
		NeutralizingBackground: true,
		CleanInterval:          3,
	}
	if bc[field.XLo] == field.Absorbing {
		cfg.Lasers = []*laser.Antenna{{XGlobal: 0.75, Omega: 1, A0: 0.05, RampTime: 2}}
	}
	return cfg
}

// murSection returns a copy of the rank's Mur rows (murRows).
func murSection(rk *Rank) [][]float32 {
	var rows [][]float32
	stateRows(rk.D, rk.rho0, nil, func(comp, _ int, row []float32) {
		if comp >= compMur {
			rows = append(rows, slices.Clone(row))
		}
	})
	return rows
}

// poisonGhosts writes NaN into every ghost voxel of the rank's E, B and
// background, except the Mur section (murRows), which is state.
func poisonGhosts(rk *Rank) {
	mur := murSection(rk)
	nan := float32(math.NaN())
	for _, a := range rk.ghostArrays() {
		for v := range a {
			if !rk.D.G.Interior(v) {
				a[v] = nan
			}
		}
	}
	i := 0
	stateRows(rk.D, rk.rho0, nil, func(comp, _ int, row []float32) {
		if comp >= compMur {
			copy(row, mur[i])
			i++
		}
	})
}

// ghostArrays lists the rank's arrays with derived ghost planes: E, B
// and the background.
func (rk *Rank) ghostArrays() [][]float32 {
	f := rk.D.F
	arrs := [][]float32{f.Ex, f.Ey, f.Ez, f.Bx, f.By, f.Bz}
	if rk.rho0 != nil {
		arrs = append(arrs, rk.rho0)
	}
	return arrs
}

// poisonUnread writes NaN into every remote-face ghost plane of E and B
// except E's high side (plane N+1): the step fills each side before its
// reader, and E's plane N+1 is the one plane read across the step
// boundary, by the next step's first B half.
func poisonUnread(rk *Rank) {
	d, f := rk.D, rk.D.F
	nan := float32(math.NaN())
	for face := field.Face(0); face < field.NumFaces; face++ {
		if !d.Remote(face) {
			continue
		}
		arrs, idx := [][]float32{f.Bx, f.By, f.Bz, f.Ex, f.Ey, f.Ez}, 0
		if face.High() {
			arrs, idx = arrs[:3], [3]int{d.G.NX, d.G.NY, d.G.NZ}[face.Axis()]+1
		}
		first, run, stride, n := d.G.Plane(face.Axis(), idx)
		for _, a := range arrs {
			for k := first; k < first+n*stride; k += stride {
				for r := range run {
					a[k+r] = nan
				}
			}
		}
	}
}

// TestGhostsAreDerived: ghost planes are derived data, and the step
// fills each one before its reader. After every step, one world is
// poisoned and must step on to the untouched world's StateCRCs and
// CanonicalDigest, in two modes. "prime": NaN in every ghost voxel of
// E, B and the background except Mur's section, then the ghost prime
// (primeGhosts), which must leave no ghost voxel NaN. "unfilled": NaN
// in every remote-face ghost plane the step does not carry across its
// boundary (poisonUnread), and no prime. Rows cover periodic, conductor,
// Mur and mixed faces on 1, 2 and 2×2×2 ranks over five cleans; every
// 2-rank world and the periodic 2×2×2 one move their x-cuts once.
func TestGhostsAreDerived(t *testing.T) {
	const (
		P = field.Periodic
		C = field.Conductor
	)
	faces := append([]struct {
		name string
		bc   [field.NumFaces]field.BC
	}{
		{"periodic", [field.NumFaces]field.BC{P, P, P, P, P, P}},
		{"conductor", [field.NumFaces]field.BC{C, C, C, C, C, C}},
	}, murFaces...)
	for _, fc := range faces {
		for _, ranks := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/%d", fc.name, ranks), func(t *testing.T) {
				for _, mode := range []string{"prime", "unfilled"} {
					t.Run(mode, func(t *testing.T) {
						checkGhostsDerived(t, fc.bc, ranks, ranks > 1 && (ranks == 2 || fc.name == "periodic"), mode == "prime")
					})
				}
			})
		}
	}
}

// checkGhostsDerived runs one TestGhostsAreDerived row in one mode.
func checkGhostsDerived(t *testing.T, bc [field.NumFaces]field.BC, ranks int, reshape, prime bool) {
	cfg := wallBox(bc, ranks)
	if ranks == 2 {
		// x-slabs, so the x-cuts can move; they move by hand only.
		cfg.Balance = BalanceConfig{Mode: balance.Online, Threshold: math.Inf(1)}
	}
	clean, poisoned := mustNew(t, cfg), mustNew(t, cfg)
	if dec := clean.sims[0].Rank.D.Cfg.Layout.Dec; ranks == 8 && (dec.PX != 2 || dec.PY != 2 || dec.PZ != 2) {
		t.Fatalf("8 ranks decompose as %dx%dx%d, want 2x2x2", dec.PX, dec.PY, dec.PZ)
	}
	for step := 1; step <= 16; step++ {
		for _, s := range []*Simulation{clean, poisoned} {
			s.Step()
			if reshape && step == 7 {
				s.each(func(rs *RankSim) { rs.Rank.reshapeX(&rs.Cfg, []int{0, 3, 8}) })
			}
		}
		if !prime {
			poisoned.each(func(rs *RankSim) { poisonUnread(rs.Rank) })
			continue
		}
		poisoned.each(func(rs *RankSim) {
			poisonGhosts(rs.Rank)
			rs.Rank.primeGhosts()
		})
		for r, rk := range poisoned.Ranks {
			for i, a := range rk.ghostArrays() {
				for v, x := range a {
					if math.IsNaN(float64(x)) {
						ix, iy, iz := rk.D.G.Unvoxel(v)
						t.Fatalf("step %d: rank %d array %d voxel (%d,%d,%d) is NaN after the prime", step, r, i, ix, iy, iz)
					}
				}
			}
		}
	}
	if got, want := poisoned.StateCRCs(), clean.StateCRCs(); !equalCRCs(got, want) {
		t.Errorf("state CRCs %08x, want the untouched world's %08x", got, want)
	}
	if got, want := poisoned.CanonicalDigest(), clean.CanonicalDigest(); got != want {
		t.Errorf("digest %016x, want the untouched world's %016x", got, want)
	}
	if reshape && !slices.Equal(poisoned.CutsX(), []int{0, 3, 8}) {
		t.Errorf("x-cuts %v, want [0 3 8]", poisoned.CutsX())
	}
}

// TestStepMessages counts a step's grid messages per class from the
// rank's remote faces (lo low, hi high): a steady step sends J's fold
// and B's low fill through the high faces, and E's and B's high fills
// through the low faces, so foldJ = hi, ghostB = lo + hi and ghostE =
// lo. A clean step adds exactly what its passes send: ρ's fold and E's
// low fill through the high faces, then per pass one two-sided fill of
// the error scalar and one of the field it cleans. A layout that splits
// one axis runs no collective in a step, so the messages a rank's links
// carry are its classes' messages, particles included; the 2×2×2 world
// still runs its settle collective, so its links carry more.
func TestStepMessages(t *testing.T) {
	const (
		P = field.Periodic
		C = field.Conductor
	)
	periodic := [field.NumFaces]field.BC{P, P, P, P, P, P}
	for _, w := range []struct {
		name  string
		bc    [field.NumFaces]field.BC
		ranks int
	}{
		{"1 rank", periodic, 1},
		{"2 ranks periodic x", periodic, 2},
		{"2 ranks x walls", [field.NumFaces]field.BC{C, C, P, P, P, P}, 2},
		{"2x2x2", periodic, 8},
	} {
		t.Run(w.name, func(t *testing.T) {
			cfg := wallBox(w.bc, w.ranks) // cleans on step 3
			if w.ranks == 2 {
				cfg.NX = 16 // the longest axis splits
			}
			s := mustNew(t, cfg)
			if dec := s.sims[0].Rank.D.Cfg.Layout.Dec; w.ranks == 2 && dec.PX != 2 {
				t.Fatalf("2 ranks decompose as %dx%dx%d, want x slabs", dec.PX, dec.PY, dec.PZ)
			}
			passes := int64(s.sims[0].Cfg.CleanPasses)
			for step := 0; step <= 3; step++ {
				before := make([][domain.NumCommClasses]int64, len(s.Ranks))
				linksBefore := make([]int64, len(s.Ranks))
				for r, rk := range s.Ranks {
					before[r] = rk.D.ClassMsgs
					linksBefore[r] = linkMsgs(rk.D.Comm)
				}
				s.Step()
				for r, rk := range s.Ranks {
					var classes int64
					for c := range rk.D.ClassMsgs {
						classes += rk.D.ClassMsgs[c] - before[r][c]
					}
					links := linkMsgs(rk.D.Comm) - linksBefore[r]
					if w.ranks == 8 && links <= classes {
						t.Errorf("step %d, rank %d: links carried %d messages, the classes %d: no settle collective ran", step, r, links, classes)
					} else if w.ranks < 8 && links != classes {
						t.Errorf("step %d, rank %d: links carried %d messages, the classes %d", step, r, links, classes)
					}
					var lo, hi int64
					for f := field.Face(0); f < field.NumFaces; f++ {
						if rk.D.Remote(f) && f.High() {
							hi++
						} else if rk.D.Remote(f) {
							lo++
						}
					}
					if w.ranks == 1 && lo+hi != 0 {
						t.Fatalf("1 rank has %d remote faces", lo+hi)
					}
					var want [domain.NumCommClasses]int64
					want[domain.ClassFoldJ], want[domain.ClassGhostB], want[domain.ClassGhostE] = hi, lo+hi, lo
					if step == 3 {
						want[domain.ClassFoldScalar] += hi
						want[domain.ClassGhostE] += hi + passes*(lo+hi)
						want[domain.ClassGhostB] += passes * (lo + hi)
						want[domain.ClassGhostScalar] += 2 * passes * (lo + hi)
					}
					for c := domain.CommClass(0); c < domain.NumCommClasses; c++ {
						if c == domain.ClassParticles {
							continue // settle sweeps vary with the migrants
						}
						if got := rk.D.ClassMsgs[c] - before[r][c]; got != want[c] {
							t.Errorf("step %d, rank %d: %d %s messages, want %d", step, r, got, c, want[c])
						}
					}
				}
			}
		})
	}
}

// linkMsgs is the number of messages c has sent over all its links.
func linkMsgs(c *mp.Comm) int64 {
	var n int64
	for _, l := range c.Stats().Snapshot() {
		n += l.MsgsSent
	}
	return n
}
