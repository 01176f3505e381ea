package deck

import (
	"errors"
	"math"
	"testing"
)

func TestTNSADeckBuilds(t *testing.T) {
	d, err := TNSA(DefaultTNSA(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := d.Cfg
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Cfg.Species) != 3 {
		t.Fatalf("TNSA has %d species, want electron+ion+proton", len(d.Cfg.Species))
	}
	if len(d.Cfg.Lasers) != 1 {
		t.Fatalf("TNSA has %d antennas, want 1 pump", len(d.Cfg.Lasers))
	}
	// Heavy bulk ion, light proton layer, charge states as configured.
	e, i, p := d.Cfg.Species[0], d.Cfg.Species[1], d.Cfg.Species[2]
	if e.Q != -1 || i.Q != 6 || p.Q != 1 {
		t.Fatalf("charges = %g %g %g", e.Q, i.Q, p.Q)
	}
	if i.M < 10*p.M || p.M < 1800 {
		t.Fatalf("masses = %g %g", i.M, p.M)
	}
	// Derived notes the validation cases key on.
	want := PonderomotiveThot(5)
	if math.Abs(d.Notes["thotPond"]-want) > 1e-12 {
		t.Fatalf("thotPond = %g, want %g", d.Notes["thotPond"], want)
	}
	if d.Notes["xRear"] <= d.Notes["xFront"] || d.Notes["total"] <= d.Notes["xRear"] {
		t.Fatalf("geometry notes out of order: front=%g rear=%g total=%g",
			d.Notes["xFront"], d.Notes["xRear"], d.Notes["total"])
	}
}

func TestTNSADeckDecomposable(t *testing.T) {
	for _, ranks := range []int{2, 3, 4} {
		p := DefaultTNSA(5)
		p.NRanks = ranks
		d, err := TNSA(p)
		if err != nil {
			t.Fatal(err)
		}
		if d.Cfg.NX%ranks != 0 {
			t.Errorf("ranks=%d: nx=%d not decomposable", ranks, d.Cfg.NX)
		}
		cfg := d.Cfg
		if err := cfg.Validate(); err != nil {
			t.Errorf("ranks=%d: %v", ranks, err)
		}
	}
}

func TestTNSARejectsBadParams(t *testing.T) {
	mod := func(f func(*TNSAParams)) TNSAParams {
		p := DefaultTNSA(5)
		f(&p)
		return p
	}
	cases := []struct {
		name  string
		p     TNSAParams
		field string
	}{
		{"zero a0", mod(func(p *TNSAParams) { p.A0 = 0 }), "a0"},
		{"underdense", mod(func(p *TNSAParams) { p.NeTarget = 0.5 }), "n0"},
		{"cold start", mod(func(p *TNSAParams) { p.Te = 0 }), "te"},
		{"no slab", mod(func(p *TNSAParams) { p.TargetThickness = 0 }), "target_thickness"},
		{"no layer", mod(func(p *TNSAParams) { p.ContamThickness = -1 }), "target_thickness"},
		{"zero ppc", mod(func(p *TNSAParams) { p.PPC = 0 }), "ppc"},
		{"bad ion", mod(func(p *TNSAParams) { p.IonZ = -6 }), "ion_z"},
		{"unresolved debye", mod(func(p *TNSAParams) { p.DX = 1 }), "dx"},
	}
	for _, tc := range cases {
		_, err := TNSA(tc.p)
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: err = %v, want *ConfigError", tc.name, err)
			continue
		}
		if ce.Field != tc.field {
			t.Errorf("%s: rejected field %q, want %q", tc.name, ce.Field, tc.field)
		}
	}
}

func TestTNSARefluxSetup(t *testing.T) {
	p := DefaultTNSA(5)
	p.RefluxWalls = true
	d, err := TNSA(p)
	if err != nil {
		t.Fatal(err)
	}
	if d.Setup == nil {
		t.Fatal("reflux deck has no setup hook")
	}
	s, err := d.New()
	if err != nil {
		t.Fatal(err)
	}
	s.Run(3)
	if particles(s) == 0 {
		t.Fatal("no particles loaded")
	}
}
