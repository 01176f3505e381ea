package deck

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzFromJSON feeds arbitrary bytes through the two entry points a
// config reaches the program by — FromJSON + Build (cmd/vpic -config,
// vpicd's restore) and a strict decode + Expand + Build (vpicd's submit
// handler) — and requires that neither panics and that whatever they
// accept is a deck whose Cfg.Validate() passes. Only parsing and
// validation run: no simulation is constructed, counts are capped, and
// at most maxBuilt members of a sweep are built. `go test` runs the
// seed corpus; `go test -fuzz=FromJSON ./internal/deck` explores.
func FuzzFromJSON(f *testing.F) {
	// One config per deck kind (the shapes internal/valid's cases and
	// cmd/bench's sweep build), the deck physics inputs, two removed
	// keys, two knobs only core.Config.Validate judges, two sweeps and a
	// removed mode value.
	for _, cfg := range []string{
		`{"deck":"thermal","steps":400,"nx":32,"ppc":64,"ranks":2,"workers":1,"n0":0.2,"uth":0.05,"kernel":"go"}`,
		`{"deck":"spike","steps":40,"nx":32,"ppc":8,"ranks":4,"balance":"online","balance_interval":2,"balance_threshold":1.15}`,
		`{"deck":"oscillation","steps":100,"nx":64,"ppc":32,"n0":0.25}`,
		`{"deck":"twostream","steps":1400,"nx":128,"ppc":64,"n0":0.2,"drift":0.1}`,
		`{"deck":"weibel","steps":1300,"nx":64,"ppc":256,"n0":0.2,"uth":0.1}`,
		`{"deck":"landau","steps":1200,"nx":64,"ppc":1024,"mode":8,"n0":0.2,"uth":0.1,"amp":0.01}`,
		`{"deck":"lpi","steps":1000,"ppc":64,"a0":0.05,"plateau_length":40,"mobile_ions":true,"ion_z":2,"ion_m":7344,"reflux_walls":true}`,
		`{"deck":"lpi","steps":10,"a0":0.02,"te_ev":2600,"transverse_cells":4}`,
		`{"deck":"tnsa","steps":2200,"a0":3,"target_thickness":2,"contam_thickness":0.2}`,
		`{"deck":"thermal","steps":10,"lanes":1}`,
		`{"deck":"thermal","steps":10,"overlap":false}`,
		`{"deck":"thermal","steps":10,"kernel":"avx512","balance_interval":-1}`,
		`{"deck":"lpi","steps":10,"a0":0.05,"balance":"online"}`,
		`{"deck":"lpi","steps":10,"a0":0.05,"plateau_length":1e300}`,
		`{"deck":"tnsa","steps":10,"a0":5,"target_thickness":1e300,"contam_thickness":1e18}`,
	} {
		f.Add(cfg, `{}`)
	}
	f.Add(`{"deck":"thermal","steps":200,"nx":32,"ppc":64}`, `{"uth":[0.03,0.05],"nx":[16,32]}`)
	f.Add(`{"deck":"lpi","steps":10}`, `{"a0":[0.02,0.05,0.07]}`)
	f.Add(`{"deck":"spike","steps":10,"ranks":2,"balance":"checkpoint"}`, `{}`)

	// Counts are capped only to bound how long a build takes; lengths
	// are not, so the builders' own bounds (checkLengths) are explored.
	const maxBuilt, maxCount = 8, 1 << 16
	capSizes := func(c *JSONConfig) {
		for _, n := range []*int{&c.NX, &c.PPC, &c.Ranks, &c.TransverseCells, &c.Mode} {
			*n = min(*n, maxCount)
		}
	}
	accepted := func(t *testing.T, d Deck) {
		if err := d.Cfg.Validate(); err != nil {
			t.Fatalf("accepted deck %q fails Validate: %v", d.Name, err)
		}
	}
	f.Fuzz(func(t *testing.T, cfg, sweep string) {
		c, err := FromJSON(strings.NewReader(cfg))
		if err != nil {
			return
		}
		capSizes(&c)
		if d, err := c.Build(); err == nil {
			if c.Steps <= 0 {
				t.Fatalf("accepted steps = %d", c.Steps)
			}
			accepted(t, d)
		}

		var sw map[string][]float64
		if json.Unmarshal([]byte(sweep), &sw) != nil {
			return
		}
		specs, err := c.Expand(sw)
		if err != nil {
			return
		}
		for _, spec := range specs[:min(len(specs), maxBuilt)] {
			capSizes(&spec) // a sweep can set sizes too
			if d, err := spec.Build(); err == nil {
				accepted(t, d)
			}
		}
	})
}
