package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"govpic/internal/balance"
	"govpic/internal/field"
	"govpic/internal/laser"
	"govpic/internal/loader"
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

// poisonGhosts writes NaN into every ghost voxel of the rank's E, B and
// background, except the Mur section (murRows), which is state.
func poisonGhosts(rk *Rank) {
	var mur [][]float32
	rk.murRows(func(row []float32) { mur = append(mur, slices.Clone(row)) })
	nan := float32(math.NaN())
	for _, a := range rk.ghostArrays() {
		for v := range a {
			if !rk.D.G.Interior(v) {
				a[v] = nan
			}
		}
	}
	i := 0
	rk.murRows(func(row []float32) { copy(row, mur[i]); i++ })
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

// TestGhostsAreDerived: ghost planes are derived data. After every step,
// one world has NaN written into every ghost voxel of E, B and the
// background except Mur's section, and runs the ghost prime
// (primeGhosts); it must leave no ghost voxel NaN, and the world must
// step on to the untouched world's StateCRCs and CanonicalDigest. Rows
// cover periodic, conductor, Mur and mixed faces on 1, 2 and 2×2×2
// ranks over five cleans; the periodic multi-rank worlds move their
// x-cuts once (the balancer runs on periodic decks only).
func TestGhostsAreDerived(t *testing.T) {
	const (
		P = field.Periodic
		C = field.Conductor
		M = field.Absorbing
	)
	faces := []struct {
		name string
		bc   [field.NumFaces]field.BC
	}{
		{"periodic", [field.NumFaces]field.BC{P, P, P, P, P, P}},
		{"conductor", [field.NumFaces]field.BC{C, C, C, C, C, C}},
		{"mur", [field.NumFaces]field.BC{M, M, P, P, P, P}},
		{"mixed", [field.NumFaces]field.BC{M, C, P, P, C, M}},
	}
	for _, fc := range faces {
		for _, ranks := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/%d", fc.name, ranks), func(t *testing.T) {
				cfg := wallBox(fc.bc, ranks)
				reshape := fc.name == "periodic" && ranks > 1
				if reshape && ranks == 2 {
					cfg.Balance.Mode = balance.Online // x-slabs, so the x-cuts can move
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
			})
		}
	}
}
