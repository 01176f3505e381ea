package deck

import (
	"strings"
	"testing"
)

func TestFromJSONMalformed(t *testing.T) {
	for _, bad := range []string{
		``,
		`{`,
		`{"deck": "thermal", "steps": }`,
		`not json at all`,
	} {
		if _, _, err := FromJSON(strings.NewReader(bad)); err == nil {
			t.Errorf("FromJSON(%q) accepted malformed input", bad)
		}
	}
}

func TestFromJSONUnknownField(t *testing.T) {
	// "lanes" selected a push sweep until there was only one, and
	// "overlap" the blocking exchange schedule until there was only one;
	// a deck that still sets either must be refused with the field
	// named, not run with the knob silently ignored.
	for field, cfg := range map[string]string{
		"typo_knob": `{"deck":"thermal","steps":10,"typo_knob":3}`,
		"lanes":     `{"deck":"thermal","steps":10,"lanes":1}`,
		"overlap":   `{"deck":"thermal","steps":10,"overlap":false}`,
	} {
		_, _, err := FromJSON(strings.NewReader(cfg))
		if err == nil || !strings.Contains(err.Error(), `unknown field "`+field+`"`) {
			t.Errorf("FromJSON(%s): err = %v, want unknown field %q", cfg, err, field)
		}
	}
}

func TestFromJSONUnknownDeck(t *testing.T) {
	_, _, err := FromJSON(strings.NewReader(`{"deck":"warp-drive","steps":10}`))
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
		d, _, err := FromJSON(strings.NewReader(bad))
		if err == nil {
			t.Errorf("FromJSON(%q) = deck %q, want error", bad, d.Name)
		}
	}
}

func TestFromJSONLPINeedsDrive(t *testing.T) {
	_, _, err := FromJSON(strings.NewReader(`{"deck":"lpi","steps":10}`))
	if err == nil || !strings.Contains(err.Error(), "a0") {
		t.Errorf("err = %v, want missing-a0 error", err)
	}
}

func TestFromJSONGoodConfig(t *testing.T) {
	d, steps, err := FromJSON(strings.NewReader(`{"deck":"thermal","steps":25,"nx":8,"ppc":4}`))
	if err != nil {
		t.Fatal(err)
	}
	if steps != 25 || d.Name != "thermal" || d.Cfg.NX != 8 {
		t.Fatalf("got steps=%d deck=%q nx=%d", steps, d.Name, d.Cfg.NX)
	}
}
