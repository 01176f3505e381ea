package units

import (
	"math"
	"testing"
	"testing/quick"
)

func close(a, b, rel float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= rel*m
}

func TestA0Intensity351nm(t *testing.T) {
	// Known benchmark: I = 1e18 W/cm² at λ=1 µm gives a0 = 0.855.
	a0 := A0FromIntensity(1e18, 1e-6)
	if !close(a0, 0.855, 1e-9) {
		t.Fatalf("a0 = %g, want 0.855", a0)
	}
	// Paper-relevant scale: a few 1e15 W/cm² at 351 nm gives a0 ≈ 0.0168·sqrt(I15).
	a0 = A0FromIntensity(4e15, 351e-9)
	if !close(a0, 0.855*math.Sqrt(4e-3)*0.351, 1e-9) {
		t.Fatalf("a0(4e15,351nm) = %g", a0)
	}
}

func TestA0IntensityRoundTrip(t *testing.T) {
	// a0 ∝ sqrt(I)·λ: inverting that law must give back the intensity
	// the deck reader converted, over 1e12..1e20 W/cm² and 100..1100 nm.
	f := func(logI, lambdaNm float64) bool {
		iw := math.Pow(10, 12+math.Mod(math.Abs(logI), 8))
		lam := (100 + math.Mod(math.Abs(lambdaNm), 1000)) * 1e-9
		r := A0FromIntensity(iw, lam) / (0.855 * lam * 1e6)
		return close(r*r*1e18, iw, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTeFromEV(t *testing.T) {
	// 511 keV is one electron rest mass to ~0.1%.
	if !close(TeFromEV(510998.9), 1.0, 1e-4) {
		t.Fatalf("TeFromEV(511keV) = %g", TeFromEV(510998.9))
	}
	// 2.6 keV (hohlraum-like) is ≈ 0.0051 me c².
	if !close(TeFromEV(2600), 0.005088, 1e-3) {
		t.Fatalf("TeFromEV(2.6keV) = %g", TeFromEV(2600))
	}
}

func TestWpeScaling(t *testing.T) {
	if !close(Wpe(0.25), 0.5, 1e-12) {
		t.Fatalf("Wpe(0.25) = %g, want 0.5", Wpe(0.25))
	}
	if !close(Wpe(1), 1, 1e-12) {
		t.Fatal("Wpe(1) must be 1: n=ncr means ωpe=ω")
	}
}

func TestDebyeLength(t *testing.T) {
	// λD = vth/ωpe. For n/ncr=0.1, Te=0.005 mc²: vth=sqrt(0.005),
	// ωpe=sqrt(0.1).
	got := DebyeLength(0.1, 0.005)
	want := math.Sqrt(0.005) / math.Sqrt(0.1)
	if !close(got, want, 1e-12) {
		t.Fatalf("DebyeLength = %g, want %g", got, want)
	}
}

func TestKLambdaDProperty(t *testing.T) {
	f := func(k, n, te float64) bool {
		k = math.Abs(k) + 0.01
		n = math.Mod(math.Abs(n), 0.9) + 0.01
		te = math.Mod(math.Abs(te), 0.02) + 1e-4
		// k λD must scale linearly in k.
		return close(KLambdaD(2*k, n, te), 2*KLambdaD(k, n, te), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVThermalMonotone(t *testing.T) {
	prev := 0.0
	for te := 1e-4; te < 0.1; te *= 2 {
		v := VThermal(te)
		if v <= prev {
			t.Fatalf("VThermal not monotone at te=%g", te)
		}
		prev = v
	}
}
