package push

import (
	"math"
	"testing"

	"govpic/internal/particle"
	"govpic/internal/rng"
)

func TestRefluxKeepsParticleInBox(t *testing.T) {
	r := newRig(4, 4, 4, 1)
	r.ip.LoadPar(nil, r.f)
	k := r.kernel(-1, 1, 0.4)
	k.EnableReflux(1, RefluxParams{Uth: [3]float32{0.05, 0.05, 0.05}}) // XHi
	r.buf.Append(particle.Particle{Dx: 0.9, Voxel: int32(r.g.Voxel(4, 2, 2)), Ux: 10, W: 1})
	r.acc.Clear()
	k.AdvanceP(r.buf)
	if r.buf.N() != 1 {
		t.Fatalf("particle lost at reflux wall")
	}
	p := r.buf.At(0)
	ix, _, _ := r.g.Unvoxel(int(p.Voxel))
	if ix != 4 {
		t.Fatalf("refluxed particle left cell 4 (now %d)", ix)
	}
	if p.Ux >= 0 {
		t.Fatalf("refluxed particle moving outward: ux = %g", p.Ux)
	}
	// Thermalized: the huge incident momentum must be gone.
	if math.Abs(float64(p.Ux)) > 1 {
		t.Fatalf("refluxed particle kept incident momentum: %g", p.Ux)
	}
}

func TestRefluxConservesCount(t *testing.T) {
	r := newRig(6, 4, 4, 1)
	r.ip.LoadPar(nil, r.f)
	k := r.kernel(-1, 1, 0.3)
	k.EnableReflux(0, RefluxParams{Uth: [3]float32{0.1, 0.1, 0.1}})
	k.EnableReflux(1, RefluxParams{Uth: [3]float32{0.1, 0.1, 0.1}})
	r.loadRandom(2000, 0.3, 17)
	for s := 0; s < 50; s++ {
		k.BeginStep(s)
		r.acc.Clear()
		k.AdvanceP(r.buf)
	}
	if r.buf.N() != 2000 {
		t.Fatalf("reflux lost particles: %d left", r.buf.N())
	}
	if k.NLost != 0 {
		t.Fatalf("NLost = %d at reflux walls", k.NLost)
	}
}

func TestDrawRefluxDistribution(t *testing.T) {
	p := &RefluxParams{Uth: [3]float32{0.1, 0.2, 0.3}, src: rng.Make(5, 0)}
	const n = 50000
	var sumNormal, sumTan2 float64
	for i := 0; i < n; i++ {
		ux, uy, _ := drawReflux(p, 0, -1)
		if ux >= 0 {
			t.Fatal("normal component not inward")
		}
		sumNormal += float64(ux)
		sumTan2 += float64(uy) * float64(uy)
	}
	// Flux-weighted half-Maxwellian mean |u| = uth·sqrt(π/2).
	wantMean := 0.1 * math.Sqrt(math.Pi/2)
	if got := -sumNormal / n; math.Abs(got-wantMean)/wantMean > 0.03 {
		t.Fatalf("normal mean %g, want %g", got, wantMean)
	}
	if got := math.Sqrt(sumTan2 / n); math.Abs(got-0.2)/0.2 > 0.03 {
		t.Fatalf("tangential spread %g, want 0.2", got)
	}
}

// TestEnableRefluxDefaultsSource: EnableReflux keys each wall's draws
// by species and face, and BeginStep by the step: the same species,
// face and step draw the same momenta on any kernel, another species
// or another step draws apart.
func TestEnableRefluxDefaultsSource(t *testing.T) {
	r := newRig(4, 4, 4, 1)
	r.ip.LoadPar(nil, r.f)
	first := func(species, step int) [3]float32 {
		k := r.kernel(-1, 1, 0.3)
		k.EnableReflux(2, RefluxParams{Uth: [3]float32{0.1, 0.1, 0.1}, Species: species})
		k.BeginStep(step)
		ux, uy, uz := drawReflux(k.reflux[2], 1, 1)
		return [3]float32{ux, uy, uz}
	}
	if a, b := first(0, 7), first(0, 7); a != b {
		t.Fatalf("species 0, step 7 drew %v and %v", a, b)
	}
	if a, b := first(0, 7), first(1, 7); a == b {
		t.Fatalf("species 0 and 1 drew the same momentum %v on one face", a)
	}
	if a, b := first(0, 7), first(0, 8); a == b {
		t.Fatalf("steps 7 and 8 drew the same momentum %v", a)
	}
}
