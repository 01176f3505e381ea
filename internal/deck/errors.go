package deck

import "fmt"

// ConfigError is a typed rejection of one deck-config field: which
// field, what value, and why it is unusable. Callers that front the
// deck layer with an API (vpicd, validate) match on it with errors.As
// to distinguish a bad user config from an internal failure.
type ConfigError struct {
	Field  string
	Value  float64
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("deck: field %q = %g: %s", e.Field, e.Value, e.Reason)
}

// maxCellsPerLength bounds the cells any one deck length may span. A
// box is the sum of a handful of lengths, so its cell count stays far
// inside int and the float → int conversion that sizes the grid cannot
// overflow (1e300 c/ω0 used to reach grid.MustNew as a negative count).
const maxCellsPerLength = 1 << 22

// namedLength is one deck length under its config-field name.
type namedLength struct {
	field string
	value float64
}

// checkLengths rejects, by field name, the first length that is not a
// number or spans more than maxCellsPerLength cells of size dx.
func checkLengths(dx float64, lengths ...namedLength) error {
	for _, l := range lengths {
		if !(l.value/dx <= maxCellsPerLength) {
			return &ConfigError{Field: l.field, Value: l.value,
				Reason: fmt.Sprintf("spans more than %d cells of %g", maxCellsPerLength, dx)}
		}
	}
	return nil
}

// SpeciesError is a typed rejection of one species parameter in a
// built deck: a zero or negative mass or particle count, or a zero
// charge, whichever builder produced it. Every deck a config constructs
// passes through this validation before it reaches core.New, so a
// malformed species is attributed to its deck field rather than
// surfacing as a panic deep in the loader.
type SpeciesError struct {
	Species string
	Field   string
	Value   float64
}

func (e *SpeciesError) Error() string {
	return fmt.Sprintf("deck: species %q: %s = %g must be %s", e.Species, e.Field, e.Value, e.wants())
}

func (e *SpeciesError) wants() string {
	if e.Field == "charge" {
		return "nonzero"
	}
	return "positive"
}

// validateSpecies applies the species-level hardening to a built deck:
// zero/negative mass, zero charge, and zero/negative particle counts
// (PPC, reference density) are rejected with typed errors regardless of
// which builder or JSON path produced them.
func validateSpecies(d Deck) error {
	for _, sc := range d.Cfg.Species {
		if sc.M <= 0 {
			return &SpeciesError{Species: sc.Name, Field: "mass", Value: sc.M}
		}
		if sc.Q == 0 {
			return &SpeciesError{Species: sc.Name, Field: "charge", Value: sc.Q}
		}
		if sc.Load == nil {
			continue
		}
		if !sc.NeutralizePrevious && sc.Load.Profile != nil {
			if sc.Load.PPC <= 0 {
				return &SpeciesError{Species: sc.Name, Field: "ppc", Value: float64(sc.Load.PPC)}
			}
			if sc.Load.Nref <= 0 {
				return &SpeciesError{Species: sc.Name, Field: "nref", Value: sc.Load.Nref}
			}
		}
	}
	return nil
}
