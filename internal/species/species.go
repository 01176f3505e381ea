// Package species groups the per-species state of the simulation: the
// physical parameters (charge and mass in units of e and me), the
// particle buffer, and bookkeeping such as the sort cadence.
package species

import (
	"fmt"

	"govpic/internal/particle"
)

// Species is one kinetically evolved plasma species on one rank.
type Species struct {
	Name string
	// Q and M are the charge and mass in units of e and me; electrons
	// are Q=-1, M=1.
	Q, M float64
	// SortInterval is the number of steps between counting sorts of the
	// particle list (0 disables sorting). VPIC's LPI runs sorted
	// electrons every ~20 steps and ions less often.
	SortInterval int

	Buf *particle.Buffer
}

// New validates and builds a species with an empty buffer.
func New(name string, q, m float64, sortInterval int) (*Species, error) {
	if name == "" {
		return nil, fmt.Errorf("species: empty name")
	}
	if m <= 0 {
		return nil, fmt.Errorf("species %q: mass %g must be positive", name, m)
	}
	if q == 0 {
		return nil, fmt.Errorf("species %q: charge must be nonzero", name)
	}
	if sortInterval < 0 {
		return nil, fmt.Errorf("species %q: negative sort interval", name)
	}
	return &Species{Name: name, Q: q, M: m, SortInterval: sortInterval, Buf: particle.NewBuffer(0)}, nil
}

// ShouldSort reports whether the species is due for a sort at the given
// step.
func (s *Species) ShouldSort(step int) bool {
	return s.SortInterval > 0 && step > 0 && step%s.SortInterval == 0
}

// KineticEnergy returns the species kinetic energy in code units.
func (s *Species) KineticEnergy() float64 { return s.Buf.KineticEnergy(s.M) }
