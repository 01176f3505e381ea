// Package laser injects laser light with a soft (current-sheet) antenna:
// an oscillating sheet current Jy (or Jz) on one x-plane radiates plane
// waves in ±x. With a Mur absorbing boundary behind it, the backward
// wave leaves the box and the forward wave propagates into the plasma.
// In the code's units (Z0 = 1), a sheet current density J over one cell
// width dx radiates waves of amplitude E = J·dx/2, so the drive needed
// for a wave of amplitude a0·ω (i.e. normalized vector potential a0 at
// frequency ω) is J = 2·a0·ω/dx.
package laser

import (
	"fmt"
	"math"

	"govpic/internal/field"
)

// Polarization selects the driven field component.
type Polarization int

const (
	// PolY drives Ey (with Bz), the default for our quasi-1D LPI decks.
	PolY Polarization = iota
	// PolZ drives Ez (with -By).
	PolZ
)

// Antenna is a laser source on a global x-plane.
type Antenna struct {
	// XGlobal is the global x-coordinate of the antenna plane; the
	// antenna drives the cell row containing it.
	XGlobal float64
	// Omega is the laser angular frequency in code units (1 when the
	// unit system is anchored at the laser frequency).
	Omega float64
	// A0 is the normalized field strength eE/(me·c·ω): the wave launched
	// has E amplitude A0·Omega.
	A0 float64
	// RampTime smoothly ramps the amplitude with sin²(πt/2T) over
	// [0, RampTime]; zero means a hard turn-on.
	RampTime float64
	// Pol selects Ey or Ez drive.
	Pol Polarization
	// Profile optionally shapes the transverse amplitude; nil means
	// uniform (quasi-1D). It receives global (y,z).
	Profile func(y, z float64) float64
	// Phase offsets the carrier.
	Phase float64
}

// Validate checks the antenna parameters.
func (a *Antenna) Validate() error {
	if a.Omega <= 0 {
		return fmt.Errorf("laser: omega %g must be >0", a.Omega)
	}
	if a.A0 < 0 {
		return fmt.Errorf("laser: a0 %g must be ≥0", a.A0)
	}
	if a.RampTime < 0 {
		return fmt.Errorf("laser: ramp time %g must be ≥0", a.RampTime)
	}
	return nil
}

// envelope returns the slow amplitude factor at time t.
func (a *Antenna) envelope(t float64) float64 {
	if t < 0 {
		return 0
	}
	if a.RampTime == 0 || t >= a.RampTime {
		return 1
	}
	s := math.Sin(0.5 * math.Pi * t / a.RampTime)
	return s * s
}

// Inject adds the antenna current for the step ending at time t+dt into
// f's current arrays (call between ClearJ/deposition and AdvanceEPar; the
// current is evaluated at the half step like the particle current). It
// is a no-op on ranks whose tile does not contain the antenna plane.
func (a *Antenna) Inject(f *field.Fields, t, dt float64) {
	g := f.G
	lx := float64(g.NX) * g.DX
	if a.XGlobal < g.X0 || a.XGlobal >= g.X0+lx {
		return
	}
	ix := 1 + int((a.XGlobal-g.X0)/g.DX)
	if ix > g.NX {
		ix = g.NX
	}
	th := t + 0.5*dt
	amp := 2 * a.A0 * a.Omega / g.DX * a.envelope(th) * math.Sin(a.Omega*th+a.Phase)
	dst := f.Jy
	if a.Pol == PolZ {
		dst = f.Jz
	}
	for iz := 1; iz <= g.NZ; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			w := 1.0
			if a.Profile != nil {
				_, y, z := g.CellCenter(ix, iy, iz)
				w = a.Profile(y, z)
			}
			dst[g.Voxel(ix, iy, iz)] += float32(amp * w)
		}
	}
}

// Gaussian returns a transverse Gaussian profile centered at (y0,z0)
// with 1/e field radius w0, for 3-D focused-spot decks.
func Gaussian(y0, z0, w0 float64) func(y, z float64) float64 {
	return func(y, z float64) float64 {
		r2 := (y-y0)*(y-y0) + (z-z0)*(z-z0)
		return math.Exp(-r2 / (w0 * w0))
	}
}
