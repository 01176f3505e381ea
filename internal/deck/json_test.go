package deck

import (
	"strings"
	"testing"
)

// build runs a config through the front end vpic -config uses: the
// strict decode, then Build.
func build(cfg string) (Deck, int, error) {
	c, err := FromJSON(strings.NewReader(cfg))
	if err != nil {
		return Deck{}, 0, err
	}
	d, err := c.Build()
	return d, c.Steps, err
}

func TestFromJSONMalformed(t *testing.T) {
	for _, bad := range []string{
		``,
		`{`,
		`{"deck": "thermal", "steps": }`,
		`not json at all`,
	} {
		if _, _, err := build(bad); err == nil {
			t.Errorf("build(%q) accepted malformed input", bad)
		}
	}
}

func TestFromJSONUnknownField(t *testing.T) {
	// "lanes" selected a push sweep until there was only one, and
	// "overlap" the blocking exchange schedule until there was only one;
	// the collision keys drove an operator no case gated, and the
	// intensity/wavelength pair was a second spelling of a0. A deck that
	// still sets any of them must be refused with the field named, not
	// run with the knob silently ignored.
	for field, cfg := range map[string]string{
		"typo_knob":          `{"deck":"thermal","steps":10,"typo_knob":3}`,
		"lanes":              `{"deck":"thermal","steps":10,"lanes":1}`,
		"overlap":            `{"deck":"thermal","steps":10,"overlap":false}`,
		"collision_nu0":      `{"deck":"thermal","steps":10,"collision_nu0":0.01}`,
		"collision_interval": `{"deck":"thermal","steps":10,"collision_interval":5}`,
		"intensity_wcm2":     `{"deck":"lpi","steps":10,"intensity_wcm2":1e15}`,
		"wavelength_nm":      `{"deck":"lpi","steps":10,"a0":0.02,"wavelength_nm":351}`,
	} {
		_, _, err := build(cfg)
		if err == nil || !strings.Contains(err.Error(), `unknown field "`+field+`"`) {
			t.Errorf("build(%s): err = %v, want unknown field %q", cfg, err, field)
		}
	}
}

func TestFromJSONUnknownDeck(t *testing.T) {
	_, _, err := build(`{"deck":"warp-drive","steps":10}`)
	if err == nil || !strings.Contains(err.Error(), "unknown deck") {
		t.Errorf("err = %v, want unknown deck", err)
	}
}

func TestFromJSONNonPositiveSizes(t *testing.T) {
	// None of these may panic (negative sizes used to reach the grid
	// constructor), and all must error.
	for _, bad := range []string{
		`{"deck":"thermal","steps":0}`,
		`{"deck":"thermal","steps":-5}`,
		`{"deck":"thermal","steps":10,"nx":-4}`,
		`{"deck":"thermal","steps":10,"ppc":-1}`,
		`{"deck":"thermal","steps":10,"ranks":-2}`,
		`{"deck":"thermal","steps":10,"workers":-1}`,
		`{"deck":"thermal","steps":10,"n0":-0.2}`,
		`{"deck":"thermal","steps":10,"uth":-0.05}`,
		`{"deck":"lpi","steps":10,"a0":0.02,"transverse_cells":-8}`,
	} {
		d, _, err := build(bad)
		if err == nil {
			t.Errorf("build(%q) = deck %q, want error", bad, d.Name)
		}
	}
}

func TestFromJSONLPINeedsDrive(t *testing.T) {
	_, _, err := build(`{"deck":"lpi","steps":10}`)
	if err == nil || !strings.Contains(err.Error(), "a0") {
		t.Errorf("err = %v, want missing-a0 error", err)
	}
}

func TestFromJSONGoodConfig(t *testing.T) {
	d, steps, err := build(`{"deck":"thermal","steps":25,"nx":8,"ppc":4}`)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 25 || d.Name != "thermal" || d.Cfg.NX != 8 {
		t.Fatalf("got steps=%d deck=%q nx=%d", steps, d.Name, d.Cfg.NX)
	}
}
