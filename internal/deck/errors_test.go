package deck

import (
	"errors"
	"strings"
	"testing"

	"govpic/internal/core"
	"govpic/internal/loader"
)

// TestBuildTypedConfigErrors drives the JSON front end with malformed
// species-shaping knobs and requires a *ConfigError naming the field —
// the contract vpicd and validate match on to answer 400 rather than
// 500.
func TestBuildTypedConfigErrors(t *testing.T) {
	cases := []struct {
		json  string
		field string
	}{
		{`{"deck":"tnsa","steps":10,"a0":5,"ion_z":-1}`, "ion_z"},
		{`{"deck":"tnsa","steps":10,"a0":5,"ion_m":-22033}`, "ion_m"},
		{`{"deck":"tnsa","steps":10,"a0":5,"te_ev":-100}`, "te_ev"},
		{`{"deck":"tnsa","steps":10,"a0":5,"target_thickness":-2}`, "target_thickness"},
		{`{"deck":"tnsa","steps":10,"a0":5,"contam_thickness":-0.5}`, "contam_thickness"},
		{`{"deck":"lpi","steps":10,"a0":0.02,"ion_m":-1}`, "ion_m"},
		{`{"deck":"tnsa","steps":10,"a0":5,"n0":0.5}`, "n0"}, // underdense target
		// Lengths whose cell count overflows int used to panic in
		// grid.MustNew (through vpicd: a handler panic, not a 400).
		{`{"deck":"lpi","a0":0.05,"steps":10,"plateau_length":1e300}`, "plateau_length"},
		{`{"deck":"tnsa","a0":5,"steps":10,"target_thickness":1e300}`, "target_thickness"},
		{`{"deck":"tnsa","a0":5,"steps":10,"contam_thickness":1e12}`, "contam_thickness"},
	}
	for _, tc := range cases {
		_, _, err := build(tc.json)
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("build(%s): err = %v, want *ConfigError", tc.json, err)
			continue
		}
		if ce.Field != tc.field {
			t.Errorf("build(%s): field %q, want %q", tc.json, ce.Field, tc.field)
		}
		if !strings.Contains(ce.Error(), tc.field) {
			t.Errorf("error text %q does not name the field", ce.Error())
		}
	}
}

// TestValidateSpeciesTypedErrors hand-builds decks with malformed
// species and requires *SpeciesError attributing the bad parameter to
// its species, whatever builder produced it.
func TestValidateSpeciesTypedErrors(t *testing.T) {
	base := func() Deck {
		d := Thermal(8, 4, 4, 8, 1, 0.2, 0.05)
		return d
	}
	cases := []struct {
		name    string
		mutate  func(*Deck)
		species string
		field   string
	}{
		{"zero mass", func(d *Deck) { d.Cfg.Species[0].M = 0 }, "electron", "mass"},
		{"negative mass", func(d *Deck) { d.Cfg.Species[0].M = -1 }, "electron", "mass"},
		{"zero charge", func(d *Deck) { d.Cfg.Species[0].Q = 0 }, "electron", "charge"},
		{"zero ppc", func(d *Deck) { d.Cfg.Species[0].Load.PPC = 0 }, "electron", "ppc"},
		{"negative nref", func(d *Deck) { d.Cfg.Species[0].Load.Nref = -0.2 }, "electron", "nref"},
	}
	for _, tc := range cases {
		d := base()
		tc.mutate(&d)
		err := validateSpecies(d)
		var se *SpeciesError
		if !errors.As(err, &se) {
			t.Errorf("%s: err = %v, want *SpeciesError", tc.name, err)
			continue
		}
		if se.Species != tc.species || se.Field != tc.field {
			t.Errorf("%s: got species %q field %q, want %q %q",
				tc.name, se.Species, se.Field, tc.species, tc.field)
		}
	}
}

// TestValidateSpeciesAcceptsNeutralizer: a neutralizing background
// species (no independent profile) carries no PPC/Nref of its own and
// must pass.
func TestValidateSpeciesAcceptsNeutralizer(t *testing.T) {
	d := Deck{Cfg: core.Config{Species: []core.SpeciesConfig{
		{Name: "electron", Q: -1, M: 1, Load: &loader.Params{
			Profile: func(x, y, z float64) float64 { return 0.2 },
			PPC:     8, Nref: 0.2,
		}},
		{Name: "ion", Q: 1, M: 1836, NeutralizePrevious: true, Load: &loader.Params{}},
	}}}
	if err := validateSpecies(d); err != nil {
		t.Fatalf("neutralizing species rejected: %v", err)
	}
}
