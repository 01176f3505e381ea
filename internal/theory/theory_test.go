package theory

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestFaddeevaOrigin(t *testing.T) {
	if got := Faddeeva(0); cmplx.Abs(got-1) > 1e-4 {
		t.Fatalf("w(0) = %v, want 1", got)
	}
}

func TestFaddeevaImaginaryAxis(t *testing.T) {
	// w(iy) = exp(y²)·erfc(y), purely real.
	for _, y := range []float64{0.3, 0.5, 1, 2, 4, 8} {
		got := Faddeeva(complex(0, y))
		want := math.Exp(y*y) * math.Erfc(y)
		if math.Abs(real(got)-want)/want > 2e-4 {
			t.Fatalf("w(%gi) = %v, want %g", y, got, want)
		}
		if math.Abs(imag(got)) > 1e-4 {
			t.Fatalf("w(%gi) has imaginary part %g", y, imag(got))
		}
	}
}

func TestFaddeevaSymmetry(t *testing.T) {
	// w(−conj z) = conj(w(z)).
	f := func(a, b float64) bool {
		z := complex(math.Mod(a, 4), math.Abs(math.Mod(b, 4)))
		l := Faddeeva(complex(-real(z), imag(z)))
		r := cmplx.Conj(Faddeeva(cmplx.Conj(complex(real(z), imag(z)))))
		// For Im z ≥ 0 this is w(−x+iy) vs conj(w(x−iy)) → both equal
		// conj(w(conj(z))) reflected; compare magnitudes and real parts.
		return cmplx.Abs(l-r) < 5e-4*(1+cmplx.Abs(l))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestZFunction(t *testing.T) {
	// Z(0) = i√π.
	if got := Z(0); cmplx.Abs(got-complex(0, math.SqrtPi)) > 1e-3 {
		t.Fatalf("Z(0) = %v", got)
	}
	// For real x, Im Z(x) = √π·exp(−x²).
	for _, x := range []float64{0.5, 1, 2} {
		got := imag(Z(complex(x, 0)))
		want := math.SqrtPi * math.Exp(-x*x)
		if math.Abs(got-want)/want > 1e-3 {
			t.Fatalf("Im Z(%g) = %g, want %g", x, got, want)
		}
	}
	// Asymptotic: Z(x) ≈ −1/x for large real x.
	got := real(Z(complex(10, 0)))
	if math.Abs(got+0.1005) > 2e-3 {
		t.Fatalf("Re Z(10) = %g, want ≈ −0.1005", got)
	}
}

func TestZPrimeAtZero(t *testing.T) {
	if got := ZPrime(0); cmplx.Abs(got+2) > 1e-3 {
		t.Fatalf("Z'(0) = %v, want −2", got)
	}
}

func TestBohmGross(t *testing.T) {
	// k→0 limit: ω → ωpe.
	if got := BohmGross(1e-9, 0.25, 0.005); math.Abs(got-0.5) > 1e-6 {
		t.Fatalf("BohmGross(k→0) = %g, want 0.5", got)
	}
	if BohmGross(1, 0.1, 0.01) <= BohmGross(0.5, 0.1, 0.01) {
		t.Fatal("Bohm-Gross not increasing in k")
	}
}

// TestEPWDispersionBenchmark checks the classic kinetic benchmark:
// kλD = 0.3 gives ω/ωpe ≈ 1.1598, γ/ωpe ≈ 0.0126.
func TestEPWDispersionBenchmark(t *testing.T) {
	n := 0.09    // ωpe = 0.3
	te := 0.0036 // vth = 0.06 → λD = 0.2, so k=1.5 gives kλD = 0.3
	k := 1.5
	w, err := EPWDispersion(k, n, te)
	if err != nil {
		t.Fatal(err)
	}
	wpe := math.Sqrt(n)
	wr := real(w) / wpe
	gam := -imag(w) / wpe
	if math.Abs(wr-1.1598) > 0.02 {
		t.Fatalf("ωr/ωpe = %g, want 1.1598", wr)
	}
	if math.Abs(gam-0.0126) > 0.002 {
		t.Fatalf("γ/ωpe = %g, want 0.0126", gam)
	}
}

func TestEPWDampingGrowsWithKLD(t *testing.T) {
	n, te := 0.1, 0.005
	prev := 0.0
	for _, k := range []float64{1.2, 1.5, 1.8, 2.1} {
		w, err := EPWDispersion(k, n, te)
		if err != nil {
			t.Fatal(err)
		}
		g := -imag(w)
		if g <= prev {
			t.Fatalf("Landau damping not increasing at k=%g: %g ≤ %g", k, g, prev)
		}
		prev = g
	}
}

func TestEPWDispersionValidation(t *testing.T) {
	if _, err := EPWDispersion(0, 0.1, 0.005); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := EPWDispersion(1, 1.5, 0.005); err == nil {
		t.Error("accepted overdense plasma")
	}
}

func TestEMDispersion(t *testing.T) {
	k, err := EMDispersion(1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(k-math.Sqrt(0.9)) > 1e-12 {
		t.Fatalf("k = %g", k)
	}
	if _, err := EMDispersion(0.3, 0.1); err == nil {
		t.Error("accepted wave below cutoff")
	}
}

func TestMatchSRS(t *testing.T) {
	n, te := 0.1, 0.005 // ≈ 2.6 keV at n = 0.1 ncr: hohlraum-like
	m, err := MatchSRS(n, te)
	if err != nil {
		t.Fatal(err)
	}
	// Frequency matching.
	if math.Abs(m.Ws+m.We-1) > 1e-9 {
		t.Fatalf("ωs + ωe = %g, want 1", m.Ws+m.We)
	}
	// Wavenumber matching (backscatter).
	if math.Abs(m.Ke-(m.K0+m.Ks)) > 1e-9 {
		t.Fatalf("ke = %g, want k0+ks = %g", m.Ke, m.K0+m.Ks)
	}
	// EPW frequency near ωpe.
	wpe := math.Sqrt(n)
	if m.We < wpe || m.We > 1.6*wpe {
		t.Fatalf("ωe = %g outside (ωpe, 1.6ωpe)", m.We)
	}
	// This regime is the paper's: kλD in the trapping-relevant range.
	if m.KLD < 0.25 || m.KLD > 0.5 {
		t.Fatalf("kλD = %g, expected hohlraum-like 0.25–0.5", m.KLD)
	}
	if m.NuL <= 0 {
		t.Fatal("no Landau damping")
	}
}

func TestMatchSRSValidation(t *testing.T) {
	if _, err := MatchSRS(0.3, 0.005); err == nil {
		t.Error("accepted n > ncr/4")
	}
	if _, err := MatchSRS(0, 0.005); err == nil {
		t.Error("accepted n = 0")
	}
}

func TestGrowthLinearInA0(t *testing.T) {
	m, err := MatchSRS(0.1, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	g1 := m.Growth(0.01, 0.1)
	g2 := m.Growth(0.02, 0.1)
	if math.Abs(g2-2*g1) > 1e-12 {
		t.Fatalf("growth not linear in a0: %g, %g", g1, g2)
	}
	if g1 <= 0 {
		t.Fatal("growth rate not positive")
	}
}

func TestLinearReflectivityMonotoneAndClamped(t *testing.T) {
	m, err := MatchSRS(0.1, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, a0 := range []float64{0.005, 0.01, 0.02, 0.04} {
		r := m.LinearReflectivity(a0, 0.1, 200, 1e-6)
		if r < prev {
			t.Fatalf("reflectivity not monotone at a0=%g", a0)
		}
		if r > 1 {
			t.Fatalf("reflectivity %g > 1", r)
		}
		prev = r
	}
	if r := m.LinearReflectivity(10, 0.1, 1e6, 1e-6); r != 1 {
		t.Fatalf("huge gain not clamped: %g", r)
	}
}
