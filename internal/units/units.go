// Package units defines the normalized unit system used throughout the
// simulation and helpers to translate between laboratory (SI) quantities
// and code units.
//
// The code works in the conventional relativistic PIC normalization:
//
//   - velocities are measured in units of the speed of light, c = 1;
//   - time is measured in units of 1/ω, where ω is a caller-chosen
//     reference angular frequency (the laser frequency ω0 for LPI decks,
//     or the plasma frequency ωpe for pure-plasma decks);
//   - lengths are measured in units of c/ω;
//   - momenta are u = γv/c (dimensionless);
//   - electric fields E and magnetic fields cB are measured in units of
//     me·c·ω/e, so that the electron normalized charge-to-mass ratio is
//     exactly −1;
//   - densities are measured in units of the critical density
//     ncr = ε0·me·ω²/e², so that ωpe²/ω² = n/ncr;
//   - ε0 = μ0 = 1, which makes the vacuum Maxwell equations
//     ∂B/∂t = −∇×E and ∂E/∂t = ∇×B − J.
//
// With these conventions the dimensionless laser strength parameter
// a0 = eE/(me·c·ω0) is numerically the peak electric field of a wave of
// frequency 1 in code units.
package units

import "math"

// Physical constants (SI). Used only when translating a deck described
// in laboratory units into code units; the simulation itself never
// consumes them.
const (
	C          = 299792458.0    // speed of light, m/s
	ElectronQ  = 1.60217663e-19 // elementary charge, C
	ElectronM  = 9.1093837e-31  // electron mass, kg
	EVPerJoule = 1.0 / ElectronQ
	ProtonM    = 1.67262192e-27 // proton mass, kg
	// MeVPerMc2 converts code-unit energies (me·c²) to MeV — the unit
	// the ion-acceleration literature reports cutoff energies in.
	MeVPerMc2 = ElectronM * C * C * EVPerJoule / 1e6
)

// Plasma parameter helpers. All inputs and outputs are in code units
// unless stated otherwise.

// Wpe returns the electron plasma frequency (in units of the reference
// frequency) of a plasma with electron density n in critical-density
// units: ωpe/ω = sqrt(n/ncr).
func Wpe(nOverNcr float64) float64 { return math.Sqrt(nOverNcr) }

// VThermal returns the non-relativistic electron thermal speed
// sqrt(Te/me c²) in units of c, given Te in units of me·c² (use
// TeFromEV to build it).
func VThermal(teOverMc2 float64) float64 { return math.Sqrt(teOverMc2) }

// TeFromEV converts a temperature in electron-volts to units of me·c².
func TeFromEV(teEV float64) float64 {
	const mc2EV = ElectronM * C * C * EVPerJoule // ≈ 510998.9 eV
	return teEV / mc2EV
}
