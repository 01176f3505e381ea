package laser

import (
	"math"
	"testing"

	"govpic/internal/field"
	"govpic/internal/grid"
)

func TestValidate(t *testing.T) {
	a := &Antenna{Omega: 1, A0: 0.01}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if (&Antenna{Omega: 0, A0: 1}).Validate() == nil {
		t.Error("accepted omega=0")
	}
	if (&Antenna{Omega: 1, A0: -1}).Validate() == nil {
		t.Error("accepted a0<0")
	}
	if (&Antenna{Omega: 1, A0: 1, RampTime: -2}).Validate() == nil {
		t.Error("accepted negative ramp")
	}
}

func TestEnvelope(t *testing.T) {
	a := &Antenna{Omega: 1, A0: 1, RampTime: 10}
	if a.envelope(-1) != 0 {
		t.Error("envelope before t=0 not zero")
	}
	if a.envelope(20) != 1 {
		t.Error("envelope after ramp not 1")
	}
	if e := a.envelope(5); math.Abs(e-0.5) > 1e-12 {
		t.Errorf("envelope(T/2) = %g, want 0.5", e)
	}
	hard := &Antenna{Omega: 1, A0: 1}
	if hard.envelope(0.001) != 1 {
		t.Error("hard turn-on envelope not 1")
	}
}

func TestInjectSkipsForeignRank(t *testing.T) {
	g, _ := grid.New(10, 1, 1, 1, 1, 1, 100, 0, 0) // tile at x ∈ [100,110]
	f := field.NewPeriodic(g)
	a := &Antenna{XGlobal: 5, Omega: 1, A0: 0.1}
	a.Inject(f, 1, 0.1)
	for _, j := range f.Jy {
		if j != 0 {
			t.Fatal("antenna injected outside its tile")
		}
	}
}

// TestLaunchedAmplitude drives the antenna in vacuum with absorbing
// walls and checks the launched wave amplitude against A0·ω.
func TestLaunchedAmplitude(t *testing.T) {
	nx := 400
	dx := 0.1 // 2π/ω0 / dx ≈ 63 points per wavelength
	g := grid.MustNew(nx, 1, 1, dx, 1, 1)
	bc := [field.NumFaces]field.BC{
		field.XLo: field.Absorbing, field.XHi: field.Absorbing,
		field.YLo: field.Periodic, field.YHi: field.Periodic,
		field.ZLo: field.Periodic, field.ZHi: field.Periodic,
	}
	f := field.MustNew(g, bc)
	a0 := 0.02
	a := &Antenna{XGlobal: 5, Omega: 1, A0: a0, RampTime: 10}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	dt := 0.95 * dx
	probe := g.Voxel(250, 1, 1) // 20 length units downstream
	maxE := 0.0
	steps := int(80 / dt)
	for s := 0; s < steps; s++ {
		tNow := float64(s) * dt
		f.AdvanceBPar(nil, dt, 0.5)
		f.ClearJ()
		a.Inject(f, tNow, dt)
		f.AdvanceEPar(nil, dt)
		f.AdvanceBPar(nil, dt, 0.5)
		if tNow > 50 { // steady state, past ramp + transit
			if e := math.Abs(float64(f.Ey[probe])); e > maxE {
				maxE = e
			}
		}
	}
	want := a0 * 1.0 // A0·Omega
	if math.Abs(maxE-want)/want > 0.05 {
		t.Fatalf("launched amplitude %g, want %g ±5%%", maxE, want)
	}
}

func TestPolZDrivesEz(t *testing.T) {
	g := grid.MustNew(10, 1, 1, 1, 1, 1)
	f := field.NewPeriodic(g)
	a := &Antenna{XGlobal: 5, Omega: 1, A0: 0.1, Pol: PolZ, Phase: math.Pi / 2}
	a.Inject(f, 0, 0.1)
	var sumY, sumZ float64
	for i := range f.Jy {
		sumY += math.Abs(float64(f.Jy[i]))
		sumZ += math.Abs(float64(f.Jz[i]))
	}
	if sumY != 0 {
		t.Error("PolZ drove Jy")
	}
	if sumZ == 0 {
		t.Error("PolZ drove nothing")
	}
}

func TestGaussianProfile(t *testing.T) {
	p := Gaussian(2, 3, 4)
	if math.Abs(p(2, 3)-1) > 1e-12 {
		t.Error("Gaussian peak not 1")
	}
	if math.Abs(p(6, 3)-math.Exp(-1)) > 1e-12 {
		t.Error("Gaussian 1/e radius wrong")
	}
	if p(2, 3) < p(5, 7) {
		t.Error("Gaussian not decreasing")
	}
}

func TestRampedInjectionStartsQuiet(t *testing.T) {
	g := grid.MustNew(10, 1, 1, 1, 1, 1)
	f := field.NewPeriodic(g)
	a := &Antenna{XGlobal: 5, Omega: 1, A0: 0.1, RampTime: 100}
	a.Inject(f, 0, 0.001) // t ≈ 0: envelope ≈ 0
	for _, j := range f.Jy {
		if math.Abs(float64(j)) > 1e-8 {
			t.Fatalf("ramped antenna injected %g at t≈0", j)
		}
	}
}
