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
	k.EnableReflux(1, RefluxParams{Uth: [3]float32{0.05, 0.05, 0.05}, Src: rng.New(9, 0)}) // XHi
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
	src := rng.New(2, 1)
	k.EnableReflux(0, RefluxParams{Uth: [3]float32{0.1, 0.1, 0.1}, Src: src})
	k.EnableReflux(1, RefluxParams{Uth: [3]float32{0.1, 0.1, 0.1}, Src: src})
	r.loadRandom(2000, 0.3, 17)
	for s := 0; s < 50; s++ {
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
	p := &RefluxParams{Uth: [3]float32{0.1, 0.2, 0.3}, Src: rng.New(5, 0)}
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

func TestEnableRefluxDefaultsSource(t *testing.T) {
	r := newRig(4, 4, 4, 1)
	r.ip.LoadPar(nil, r.f)
	k := r.kernel(-1, 1, 0.3)
	k.EnableReflux(2, RefluxParams{Uth: [3]float32{0.1, 0.1, 0.1}})
	if k.reflux[2] == nil || k.reflux[2].Src == nil {
		t.Fatal("EnableReflux did not default the RNG source")
	}
}
