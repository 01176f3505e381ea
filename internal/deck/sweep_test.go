package deck

import (
	"strings"
	"testing"
)

func TestExpandNoSweep(t *testing.T) {
	base := JSONConfig{Deck: "thermal", Steps: 10}
	for _, sweep := range []map[string][]float64{nil, {}} {
		got, err := base.Expand(sweep)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != base {
			t.Fatalf("Expand(%v) = %+v, want the base config alone", sweep, got)
		}
	}
}

func TestExpandSingleParameter(t *testing.T) {
	base := JSONConfig{Deck: "lpi", Steps: 100}
	got, err := base.Expand(map[string][]float64{"a0": {0.01, 0.02, 0.03}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("expanded to %d configs, want 3", len(got))
	}
	for i, want := range []float64{0.01, 0.02, 0.03} {
		if got[i].A0 != want {
			t.Errorf("config %d: a0 = %g, want %g", i, got[i].A0, want)
		}
		if got[i].Deck != "lpi" || got[i].Steps != 100 {
			t.Errorf("config %d lost base fields: %+v", i, got[i])
		}
	}
}

func TestExpandCartesianDeterministicOrder(t *testing.T) {
	base := JSONConfig{Deck: "thermal", Steps: 10}
	got, err := base.Expand(map[string][]float64{
		"ppc": {32, 64},
		"a0":  {0.1, 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Keys expand alphabetically (a0 before ppc), values in given order.
	want := []struct {
		a0  float64
		ppc int
	}{{0.1, 32}, {0.1, 64}, {0.2, 32}, {0.2, 64}}
	if len(got) != len(want) {
		t.Fatalf("expanded to %d configs, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].A0 != w.a0 || got[i].PPC != w.ppc {
			t.Errorf("config %d = (a0=%g, ppc=%d), want (%g, %d)", i, got[i].A0, got[i].PPC, w.a0, w.ppc)
		}
	}
}

func TestExpandRejectsBadSweeps(t *testing.T) {
	base := JSONConfig{Deck: "thermal", Steps: 10}
	cases := []map[string][]float64{
		{"no_such_knob": {1}},
		{"a0": {}},
		{"ppc": {32.5}}, // integer field, fractional value
	}
	for _, sweep := range cases {
		if _, err := base.Expand(sweep); err == nil {
			t.Errorf("Expand(%v) succeeded, want error", sweep)
		}
	}
	// Removed keys are refused by name, like any unknown parameter.
	for _, key := range []string{"collision_nu0", "collision_interval", "intensity_wcm2", "wavelength_nm"} {
		_, err := base.Expand(map[string][]float64{key: {1}})
		if err == nil || !strings.Contains(err.Error(), `unknown sweep parameter "`+key+`"`) {
			t.Errorf("Expand(%s): err = %v, want unknown sweep parameter", key, err)
		}
	}
	huge := make([]float64, MaxSweepJobs+1)
	if _, err := base.Expand(map[string][]float64{"a0": huge}); err == nil {
		t.Error("Expand accepted an oversized sweep")
	}
}

func TestExpandedConfigsBuild(t *testing.T) {
	base := JSONConfig{Deck: "thermal", Steps: 10, NX: 8, PPC: 4}
	got, err := base.Expand(map[string][]float64{"uth": {0.03, 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range got {
		d, err := c.Build()
		if err != nil {
			t.Fatalf("config %d does not build: %v", i, err)
		}
		if d.Name != "thermal" {
			t.Fatalf("config %d built deck %q", i, d.Name)
		}
	}
}
