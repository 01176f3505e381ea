package push

import (
	"math"

	"govpic/internal/rng"
)

// RefluxParams configures a thermally refluxing wall — VPIC's
// "maxwellian_reflux" particle boundary, used in production LPI runs so
// that hot plasma touching a domain wall is re-emitted at the wall
// temperature instead of being lost or specularly reflected (which would
// let the edge plasma run away from the interior temperature).
type RefluxParams struct {
	// Uth is the re-emission thermal momentum spread per component.
	Uth [3]float32
	// Species is the re-emitted species' index in the run. With the face
	// it keys the wall's draws, so two species on one face draw apart.
	Species int

	key uint64     // the (species, face) stream key
	src rng.Source // this step's draws (BeginStep)
}

// EnableReflux switches the given face to refluxing re-emission with the
// given wall temperature. It overrides the face's Bound action.
func (k *Kernel) EnableReflux(face int, p RefluxParams) {
	src := rng.Make(0x5eed, p.Species*len(k.reflux)+face)
	p.key = src.Uint64()
	p.src = rng.Make(p.key, 0)
	k.Bound[face] = refluxAction
	k.reflux[face] = &p
}

// BeginStep keys the re-emissions of step step: each refluxing face
// draws from a stream of its key and the step, a function of what a
// checkpoint restores, so a resumed run re-emits what the uninterrupted
// one would. Call it before the step's push.
func (k *Kernel) BeginStep(step int) {
	for _, p := range k.reflux {
		if p != nil {
			p.src = rng.Make(p.key, step)
		}
	}
}

// refluxAction is an internal sentinel; moveP dispatches on it.
const refluxAction Action = 255

// drawReflux returns the re-emission momentum for a wall whose inward
// normal points along sign·axis. The normal component is drawn from the
// flux-weighted half-Maxwellian (v·f(v), the distribution of particles
// crossing a surface), the tangential ones from the full Maxwellian.
func drawReflux(p *RefluxParams, axis int, sign float32) (ux, uy, uz float32) {
	var u [3]float32
	for c := 0; c < 3; c++ {
		if c == axis {
			// Flux-weighted half-Maxwellian: |u| = uth·sqrt(-2·ln U).
			mag := p.Uth[c] * float32(math.Sqrt(-2*math.Log(1-p.src.Float64())))
			u[c] = sign * mag
		} else {
			u[c] = float32(p.src.Maxwellian(float64(p.Uth[c])))
		}
	}
	return u[0], u[1], u[2]
}
