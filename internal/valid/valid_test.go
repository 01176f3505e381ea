package valid

import (
	"math"
	"testing"

	"govpic/internal/deck"
)

func TestCheckEvalRelTol(t *testing.T) {
	c := Check{Observable: "omega", Ref: 2.0, RelTol: 0.1}
	for _, tc := range []struct {
		v    float64
		pass bool
	}{
		{2.0, true}, {2.19, true}, {1.81, true},
		{2.21, false}, {1.79, false},
		{math.NaN(), false}, {math.Inf(1), false},
	} {
		if got := c.Eval(tc.v).Pass; got != tc.pass {
			t.Errorf("Eval(%g) pass = %v, want %v", tc.v, got, tc.pass)
		}
	}
}

func TestCheckEvalBand(t *testing.T) {
	c := Check{Observable: "drift", Lo: -0.05, Hi: 0.05}
	for _, tc := range []struct {
		v    float64
		pass bool
	}{
		{0, true}, {-0.05, true}, {0.05, true},
		{0.051, false}, {-1, false},
		{math.NaN(), false}, {math.Inf(-1), false},
	} {
		if got := c.Eval(tc.v).Pass; got != tc.pass {
			t.Errorf("Eval(%g) pass = %v, want %v", tc.v, got, tc.pass)
		}
	}
}

func dummyCase(name string, tier Tier) Case {
	return Case{
		Name: name, Tier: tier,
		Spec:    deck.JSONConfig{Deck: "thermal", Steps: 1},
		Observe: func(p Probe, d deck.Deck, steps int) (Obs, error) { return Obs{}, nil },
		Checks:  func(d deck.Deck) ([]Check, error) { return nil, nil },
	}
}

func TestRegistry(t *testing.T) {
	var r Registry
	if err := r.Register(dummyCase("a", TierFast)); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(dummyCase("b", TierFull)); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(dummyCase("a", TierFast)); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := r.Register(dummyCase("", TierFast)); err == nil {
		t.Error("empty name accepted")
	}
	if err := r.Register(dummyCase("c", Tier("warp"))); err == nil {
		t.Error("unknown tier accepted")
	}
	bad := dummyCase("d", TierFast)
	bad.Observe = nil
	if err := r.Register(bad); err == nil {
		t.Error("nil Observe accepted")
	}
	if n := len(r.Cases(TierFast)); n != 1 {
		t.Errorf("fast tier has %d cases, want 1", n)
	}
	if n := len(r.Cases(TierFull)); n != 2 {
		t.Errorf("full tier has %d cases, want 2", n)
	}
	if _, ok := r.Lookup("b"); !ok {
		t.Error("Lookup(b) missed")
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Error("Lookup(nope) hit")
	}
}

func TestBuiltinRegistry(t *testing.T) {
	r := Builtin()
	fast := r.Cases(TierFast)
	if len(fast) < 9 {
		t.Fatalf("fast tier has %d cases, want >= 9", len(fast))
	}
	if _, ok := r.Lookup("tnsa-ion-acceleration"); !ok {
		t.Fatal("flagship TNSA case not registered")
	}
	for _, must := range []string{"landau-damping", "twostream-growth", "weibel-growth", "thermal-conservation",
		"langmuir-dispersion", "srs-seed-floor", "srs-inflation", "srs-trapping"} {
		if _, ok := r.Lookup(must); !ok {
			t.Errorf("case %q not registered", must)
		}
	}
	// Every case's spec must build (no dangling deck names or knobs).
	for _, c := range r.Cases(TierFull) {
		if _, err := c.Spec.Build(); err != nil {
			t.Errorf("case %q spec does not build: %v", c.Name, err)
		}
	}
}

func TestSanitizeReport(t *testing.T) {
	for v, want := range map[float64]float64{
		1.5:             1.5,
		math.NaN():      0,
		math.Inf(1):     math.MaxFloat64,
		math.Inf(-1):    -math.MaxFloat64,
		-3.25:           -3.25,
		math.MaxFloat64: math.MaxFloat64,
	} {
		if got := sanitize(v); got != want {
			t.Errorf("sanitize(%g) = %g, want %g", v, got, want)
		}
	}
}
