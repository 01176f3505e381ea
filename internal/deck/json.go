package deck

import (
	"encoding/json"
	"fmt"
	"io"

	"govpic/internal/balance"
	"govpic/internal/units"
)

// JSONConfig is the file-driven front end to the deck builders, so runs
// can be described by version-controlled config files rather than
// flags. Unknown fields are rejected (typos in physics configs are
// expensive).
type JSONConfig struct {
	// Deck selects the builder: thermal | oscillation | twostream |
	// weibel | landau | lpi | tnsa.
	Deck string `json:"deck"`
	// Steps is the run length (consumed by the caller).
	Steps int `json:"steps"`

	// Common knobs.
	Ranks int `json:"ranks,omitempty"`
	// Workers is the intra-rank pipeline worker count (0 = one per
	// available CPU per rank, capped at the pipeline block count).
	Workers int `json:"workers,omitempty"`
	// Kernel selects the push kernel's block routine: "asm" (the widest
	// assembly routine, push.AsmLanes), "go" (portable), or ""/"auto"
	// (asm when the CPU has one). Bit-identical either way; "asm" errors
	// where no assembly routine runs rather than silently measuring the
	// wrong kernel.
	Kernel string  `json:"kernel,omitempty"`
	PPC    int     `json:"ppc,omitempty"`
	NX     int     `json:"nx,omitempty"`
	N0     float64 `json:"n0,omitempty"` // density, ncr units

	// Generic plasma knobs.
	Uth   float64 `json:"uth,omitempty"`   // thermal momentum spread
	Drift float64 `json:"drift,omitempty"` // two-stream beam drift
	Mode  int     `json:"mode,omitempty"`  // landau seeded mode
	Amp   float64 `json:"amp,omitempty"`   // landau perturbation

	// LPI knobs.
	A0              float64 `json:"a0,omitempty"`
	TeEV            float64 `json:"te_ev,omitempty"`
	PlateauLength   float64 `json:"plateau_length,omitempty"`
	MobileIons      bool    `json:"mobile_ions,omitempty"`
	TransverseCells int     `json:"transverse_cells,omitempty"`
	RefluxWalls     bool    `json:"reflux_walls,omitempty"`
	// Ion species knobs (lpi with mobile_ions, tnsa). Zero means the
	// deck's default (He²⁺ for lpi, C⁶⁺ for tnsa).
	IonZ float64 `json:"ion_z,omitempty"`
	IonM float64 `json:"ion_m,omitempty"`

	// TNSA knobs: slab and rear contamination-layer thicknesses in c/ω0.
	TargetThickness float64 `json:"target_thickness,omitempty"`
	ContamThickness float64 `json:"contam_thickness,omitempty"`

	// Dynamic load balancing (DESIGN §13): off | online.
	Balance          string  `json:"balance,omitempty"`
	BalanceInterval  int     `json:"balance_interval,omitempty"`
	BalanceThreshold float64 `json:"balance_threshold,omitempty"`
}

// FromJSON strictly decodes a config: an unknown field is an error, so
// a removed or misspelt knob is refused by name. Build makes the deck.
func FromJSON(r io.Reader) (JSONConfig, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var c JSONConfig
	if err := dec.Decode(&c); err != nil {
		return JSONConfig{}, fmt.Errorf("deck: bad config: %w", err)
	}
	return c, nil
}

// Build constructs the deck the config describes.
func (c JSONConfig) Build() (Deck, error) {
	if c.Steps <= 0 {
		return Deck{}, fmt.Errorf("deck: steps must be positive, got %d", c.Steps)
	}
	// Zero means "use the default"; negatives would otherwise reach the
	// grid constructor and panic.
	if c.NX < 0 || c.PPC < 0 || c.Ranks < 0 || c.TransverseCells < 0 {
		return Deck{}, fmt.Errorf("deck: sizes must be positive: nx=%d ppc=%d ranks=%d transverse_cells=%d",
			c.NX, c.PPC, c.Ranks, c.TransverseCells)
	}
	if c.N0 < 0 || c.Uth < 0 {
		return Deck{}, fmt.Errorf("deck: densities and temperatures must be non-negative: n0=%g uth=%g", c.N0, c.Uth)
	}
	// Species-shaping knobs: zero means "use the deck default", anything
	// negative is a typed rejection before it can reach a builder.
	if c.IonZ < 0 {
		return Deck{}, &ConfigError{Field: "ion_z", Value: c.IonZ, Reason: "ion charge state must be positive"}
	}
	if c.IonM < 0 {
		return Deck{}, &ConfigError{Field: "ion_m", Value: c.IonM, Reason: "ion mass must be positive"}
	}
	if c.TeEV < 0 {
		return Deck{}, &ConfigError{Field: "te_ev", Value: c.TeEV, Reason: "temperature must be non-negative"}
	}
	if c.TargetThickness < 0 {
		return Deck{}, &ConfigError{Field: "target_thickness", Value: c.TargetThickness, Reason: "thickness must be positive"}
	}
	if c.ContamThickness < 0 {
		return Deck{}, &ConfigError{Field: "contam_thickness", Value: c.ContamThickness, Reason: "thickness must be positive"}
	}
	def := func(v, d int) int {
		if v == 0 {
			return d
		}
		return v
	}
	deff := func(v, d float64) float64 {
		if v == 0 {
			return d
		}
		return v
	}
	nx := def(c.NX, 64)
	ppc := def(c.PPC, 64)
	ranks := def(c.Ranks, 1)
	n0 := deff(c.N0, 0.2)
	uth := deff(c.Uth, 0.05)

	var d Deck
	var err error
	switch c.Deck {
	case "thermal":
		d = Thermal(nx, 4, 4, ppc, ranks, n0, uth)
	case "spike":
		d = Spike(nx, 8, 8, ppc, ranks, n0, uth)
	case "oscillation":
		d = PlasmaOscillation(nx, ppc, deff(c.N0, 0.25))
	case "twostream":
		d = TwoStream(nx, ppc, n0, deff(c.Drift, 0.1))
	case "weibel":
		d = Weibel(nx, ppc, n0, deff(c.Uth, 0.1), 0.01)
	case "landau":
		d = Landau(nx, ppc, def(c.Mode, 4), n0, deff(c.Uth, 0.1), deff(c.Amp, 0.01))
	case "lpi":
		if c.A0 == 0 {
			return Deck{}, fmt.Errorf("deck: lpi needs a0")
		}
		p := DefaultLPI(c.A0)
		p.NRanks = ranks
		p.PPC = def(c.PPC, p.PPC)
		if c.N0 > 0 {
			p.N = c.N0
		}
		if c.TeEV > 0 {
			p.Te = units.TeFromEV(c.TeEV)
		}
		if c.PlateauLength > 0 {
			p.PlateauLength = c.PlateauLength
		}
		p.MobileIons = c.MobileIons
		p.TransverseCells = c.TransverseCells
		p.RefluxWalls = c.RefluxWalls
		if c.IonZ > 0 {
			p.IonZ = c.IonZ
		}
		if c.IonM > 0 {
			p.IonM = c.IonM
		}
		d, err = LPI(p)
		if err != nil {
			return Deck{}, err
		}
	case "tnsa":
		if c.A0 == 0 {
			return Deck{}, fmt.Errorf("deck: tnsa needs a0")
		}
		p := DefaultTNSA(c.A0)
		p.NRanks = ranks
		p.PPC = def(c.PPC, p.PPC)
		if c.N0 > 0 {
			p.NeTarget = c.N0
		}
		if c.TeEV > 0 {
			p.Te = units.TeFromEV(c.TeEV)
		}
		if c.TargetThickness > 0 {
			p.TargetThickness = c.TargetThickness
		}
		if c.ContamThickness > 0 {
			p.ContamThickness = c.ContamThickness
		}
		if c.IonZ > 0 {
			p.IonZ = c.IonZ
		}
		if c.IonM > 0 {
			p.IonM = c.IonM
		}
		p.RefluxWalls = c.RefluxWalls
		d, err = TNSA(p)
		if err != nil {
			return Deck{}, err
		}
	default:
		return Deck{}, fmt.Errorf("deck: unknown deck %q", c.Deck)
	}

	if c.Workers < 0 {
		return Deck{}, fmt.Errorf("deck: negative workers %d", c.Workers)
	}
	d.Cfg.Workers = c.Workers
	d.Cfg.Kernel = c.Kernel
	if c.Balance != "" {
		mode, err := balance.ParseMode(c.Balance)
		if err != nil {
			return Deck{}, fmt.Errorf("deck: %w", err)
		}
		d.Cfg.Balance.Mode = mode
	}
	d.Cfg.Balance.Interval = c.BalanceInterval   // 0 = default
	d.Cfg.Balance.Threshold = c.BalanceThreshold // 0 = default
	if err := validateSpecies(d); err != nil {
		return Deck{}, err
	}
	// What Build accepts, core.New must accept: vpicd admits a sweep
	// all-or-nothing on this call. Validate resolves defaults in place,
	// so it judges a copy and the deck keeps the config as written.
	cfg := d.Cfg
	if err := cfg.Validate(); err != nil {
		return Deck{}, err
	}
	return d, nil
}
