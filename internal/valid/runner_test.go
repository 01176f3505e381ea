package valid

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"govpic/internal/core"
	"govpic/internal/deck"
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
