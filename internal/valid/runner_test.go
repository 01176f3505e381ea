package valid

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"govpic/internal/core"
	"govpic/internal/deck"
	"govpic/internal/diag"
	"govpic/internal/mp"
)

// tinySpec is a cheap two-rank thermal deck for runner mechanics tests.
func tinySpec(steps int) deck.JSONConfig {
	return deck.JSONConfig{Deck: "thermal", Steps: steps, NX: 16, PPC: 8, Ranks: 2, Workers: 1}
}

// TestDriverParityLockstepVsFreeRunning runs the same deck under the
// two ways a world of RankSims is driven — the lockstep in-process
// Simulation, read through core.Collect, and free-running members under
// mp.Run — and requires every observable to be identical on every
// member: both sides run the same collectives, so anything short of
// exact equality is a driver bug.
func TestDriverParityLockstepVsFreeRunning(t *testing.T) {
	const steps = 10
	d, err := tinySpec(steps).Build()
	if err != nil {
		t.Fatal(err)
	}

	type obs struct {
		total, lost, mode, maxKE, tailM, tailW float64
		particles                              int
		spectrum                               []float64
	}
	measure := func(rs *core.RankSim) obs {
		p := NewProbe(rs)
		e := p.Energy()
		m, w := p.TailKE(0, 0.001)
		return obs{
			total: e.Total, lost: p.LostEnergy(), particles: p.TotalParticles(),
			mode: p.ModeProjectEx(2), maxKE: p.MaxKE(0), tailM: m, tailW: w,
			spectrum: p.SpectrumKE(0, 0.02, 16),
		}
	}

	sim, err := d.New()
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(steps)
	want := core.Collect(sim, measure)

	got := make([]obs, d.Cfg.NRanks)
	mp.Run(d.Cfg.NRanks, func(comm *mp.Comm) {
		rs, err := d.NewRank(comm)
		if err != nil {
			t.Error(err)
			return
		}
		rs.Run(steps)
		got[comm.Rank()] = measure(rs)
	})
	for r, g := range got {
		if !reflect.DeepEqual(g, want) {
			t.Errorf("member %d: free-running %+v\nlockstep %+v", r, g, want)
		}
	}
	if want.particles == 0 || want.total <= 0 || want.maxKE <= 0 {
		t.Errorf("degenerate observables, the comparison proves nothing: %+v", want)
	}
}

func TestRunCaseEvaluatesChecks(t *testing.T) {
	c := Case{
		Name: "toy", Tier: TierFast, Spec: tinySpec(5),
		Observe: func(p Probe, d deck.Deck, steps int) (Obs, error) {
			for i := 0; i < steps; i++ {
				p.Step()
			}
			return Obs{Scalars: map[string]float64{
				"particles": float64(p.TotalParticles()),
				"broken":    math.NaN(),
			}}, nil
		},
		Checks: func(d deck.Deck) ([]Check, error) {
			return []Check{
				{Observable: "particles", Lo: 1, Hi: 1e12},
				{Observable: "missing", Lo: 0, Hi: 1},
			}, nil
		},
	}
	res := RunCase(c)
	if res.Error != "" {
		t.Fatal(res.Error)
	}
	if res.Pass {
		t.Error("case passed despite a missing observable")
	}
	if len(res.Checks) != 2 || !res.Checks[0].Pass || res.Checks[1].Pass {
		t.Errorf("checks = %+v", res.Checks)
	}
	// NaN observable sanitized for JSON, but report must stay encodable.
	if res.Observables["broken"] != 0 {
		t.Errorf("NaN observable sanitized to %g, want 0", res.Observables["broken"])
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatalf("result not JSON-encodable: %v", err)
	}
}

// TestRunCaseHonoursRanks: Spec.Ranks decomposes the case where its
// deck allows, and a deck whose builder pins one rank (twostream) still
// runs — on a 1-member world — instead of being refused or rerouted.
func TestRunCaseHonoursRanks(t *testing.T) {
	c := Case{Name: "ranks", Tier: TierFast, Spec: tinySpec(2),
		Observe: func(p Probe, d deck.Deck, steps int) (Obs, error) {
			return Obs{Scalars: map[string]float64{"members": float64(p.Comm().Size())}}, nil
		},
		Checks: func(d deck.Deck) ([]Check, error) { return nil, nil }}
	for _, tc := range []struct {
		spec deck.JSONConfig
		want float64
	}{
		{tinySpec(2), 2},
		{deck.JSONConfig{Deck: "twostream", Steps: 2, NX: 32, PPC: 8, Ranks: 2}, 1},
	} {
		c.Spec = tc.spec
		res := RunCase(c)
		if res.Error != "" || res.Observables["members"] != tc.want {
			t.Errorf("%s: ran on %g members (error %q), want %g",
				tc.spec.Deck, res.Observables["members"], res.Error, tc.want)
		}
	}
}

func TestReportWrite(t *testing.T) {
	dir := t.TempDir()
	rep := Report{Date: "2026-01-02", Tier: "fast", Pass: true,
		Cases: []CaseResult{{Name: "toy", Pass: true}}}
	path, err := rep.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Date != "2026-01-02" || len(back.Cases) != 1 || !back.Pass {
		t.Errorf("round-trip = %+v", back)
	}
}

// TestProbeCollectives runs each new probe collective on a 2-member
// mp.Run world: every member must get the same value, and the value must
// equal what the members' local pieces give — the owning rank's plane
// sums, the sum of per-rank histograms, the 1-rank world's line-out.
func TestProbeCollectives(t *testing.T) {
	lpi := deck.JSONConfig{Deck: "lpi", A0: 0.05, Ranks: 2, PPC: 16, PlateauLength: 40, Steps: 30, Workers: 1}
	for _, tc := range []struct {
		name string
		spec deck.JSONConfig
		// probe is the collective under test; local is this member's
		// piece of it (nil when it holds none).
		probe, local func(p Probe, d deck.Deck) []float64
		// want combines the members' pieces into the expected value;
		// tol is the allowed relative difference (0: bit-identical).
		want func(t *testing.T, pieces [][]float64) []float64
		tol  float64
	}{
		{
			name: "PlaneFlux", spec: lpi,
			probe: func(p Probe, d deck.Deck) []float64 {
				fw, bw, back := p.PlaneFlux(d.Notes["probeX"])
				return []float64{fw, bw, back}
			},
			local: func(p Probe, d deck.Deck) []float64 {
				g, x := p.Rank.D.G, d.Notes["probeX"]
				if x < g.X0 || x >= g.X0+float64(g.NX)*g.DX {
					return nil
				}
				fw, bw, back, n := diag.PoyntingSplit(p.Rank.D.F, 1+int((x-g.X0)/g.DX))
				return []float64{fw / float64(n), bw / float64(n), back / float64(n)}
			},
			want: func(t *testing.T, pieces [][]float64) []float64 {
				var owner []float64
				for _, pc := range pieces {
					if pc != nil {
						if owner != nil {
							t.Fatal("two ranks own the probe plane of an x-decomposed deck")
						}
						owner = pc
					}
				}
				return owner
			},
		},
		{
			// The plane on rank 1's first node, whose B average reaches
			// plane 0: it must read what rank 0 reads at its alias N+1.
			name: "PlaneFlux at the cut", spec: lpi,
			probe: func(p Probe, d deck.Deck) []float64 {
				gx, _, _ := p.Rank.D.Cfg.Layout.Origin(1)
				fw, bw, back := p.PlaneFlux(float64(gx) * p.Rank.D.G.DX)
				return []float64{fw, bw, back}
			},
			local: func(p Probe, d deck.Deck) []float64 {
				if p.Comm().Rank() != 0 {
					return nil
				}
				fw, bw, back, n := diag.PoyntingSplit(p.Rank.D.F, p.Rank.D.G.NX+1)
				return []float64{fw / float64(n), bw / float64(n), back / float64(n)}
			},
			want: func(t *testing.T, pieces [][]float64) []float64 { return pieces[0] },
		},
		{
			name: "DistUx", spec: lpi,
			probe: func(p Probe, d deck.Deck) []float64 { return p.DistUx(0, 10, 70, -0.5, 0.5, 32) },
			local: func(p Probe, d deck.Deck) []float64 {
				return diag.DistUx(p.Rank.D.G, p.Rank.Species[0].Buf, 10, 70, -0.5, 0.5, 32)
			},
			want: func(t *testing.T, pieces [][]float64) []float64 {
				sum := make([]float64, len(pieces[0]))
				for _, pc := range pieces {
					for i, v := range pc {
						sum[i] += v
					}
				}
				return sum
			},
		},
		{
			name: "LineOutEx", spec: tinySpec(10),
			probe: func(p Probe, d deck.Deck) []float64 { return p.LineOutEx() },
			local: func(p Probe, d deck.Deck) []float64 { return nil },
			want: func(t *testing.T, _ [][]float64) []float64 {
				one := tinySpec(10)
				one.Ranks = 1
				return runProbe(t, one, func(p Probe, d deck.Deck) []float64 { return p.LineOutEx() })[0]
			},
			tol: 1e-4, // decompositions agree to float32 accumulation order
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runProbe(t, tc.spec, tc.probe)
			pieces := runProbe(t, tc.spec, tc.local)
			if len(got) != 2 {
				t.Fatalf("ran on %d members, want 2", len(got))
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Fatalf("members disagree:\n%v\n%v", got[0], got[1])
			}
			want := tc.want(t, pieces)
			if len(want) != len(got[0]) {
				t.Fatalf("collective %v, want %v", got[0], want)
			}
			var scale float64
			for _, v := range want {
				scale = math.Max(scale, math.Abs(v))
			}
			if scale == 0 {
				t.Fatal("reference is all zero: the comparison proves nothing")
			}
			for i := range want {
				if math.Abs(got[0][i]-want[i]) > tc.tol*scale {
					t.Fatalf("element %d: collective %g, want %g", i, got[0][i], want[i])
				}
			}
		})
	}
}

// runProbe builds spec on its own world, runs its steps, and returns
// what fn measures on each member.
func runProbe(t *testing.T, spec deck.JSONConfig, fn func(p Probe, d deck.Deck) []float64) [][]float64 {
	t.Helper()
	d, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, d.Cfg.NRanks)
	mp.Run(d.Cfg.NRanks, func(comm *mp.Comm) {
		rs, err := d.NewRank(comm)
		if err != nil {
			t.Error(err)
			return
		}
		rs.Run(spec.Steps)
		out[comm.Rank()] = fn(NewProbe(rs), d)
	})
	return out
}
