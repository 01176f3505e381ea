package fft

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 6, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 1000: 1024, 1024: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestForwardRejectsNonPow2(t *testing.T) {
	if err := Forward(make([]complex128, 3)); err == nil {
		t.Fatal("Forward accepted length 3")
	}
}

// naiveDFT is the O(N²) reference.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			s += x[j] * cmplx.Exp(complex(0, -2*math.Pi*float64(k*j)/float64(n)))
		}
		out[k] = s
	}
	return out
}

func TestForwardMatchesNaive(t *testing.T) {
	x := []complex128{1, complex(2, -1), complex(0, 3), -4, 5, complex(-1, -1), 0.5, complex(0, -0.25)}
	want := naiveDFT(x)
	got := append([]complex128(nil), x...)
	if err := Forward(got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("bin %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		n := 64
		x := make([]complex128, n)
		s := uint64(seed)
		for i := range x {
			s = s*6364136223846793005 + 1442695040888963407
			re := float64(int32(s>>33)) / (1 << 30)
			s = s*6364136223846793005 + 1442695040888963407
			im := float64(int32(s>>33)) / (1 << 30)
			x[i] = complex(re, im)
		}
		// The inverse transform is conj(Forward(conj(X)))/N.
		y := append([]complex128(nil), x...)
		if Forward(y) != nil {
			return false
		}
		for i := range y {
			y[i] = cmplx.Conj(y[i])
		}
		if Forward(y) != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(cmplx.Conj(y[i])/complex(float64(n), 0)-x[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseval(t *testing.T) {
	// Σ|x|² = (1/N) Σ|X|².
	n := 128
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Sin(0.37*float64(i)), math.Cos(1.1*float64(i)))
	}
	var timeE float64
	for _, v := range x {
		timeE += real(v)*real(v) + imag(v)*imag(v)
	}
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	var freqE float64
	for _, v := range x {
		freqE += real(v)*real(v) + imag(v)*imag(v)
	}
	freqE /= float64(n)
	if math.Abs(timeE-freqE) > 1e-9*timeE {
		t.Fatalf("Parseval violated: time %g freq %g", timeE, freqE)
	}
}

func TestPowerSpectrumPureTone(t *testing.T) {
	n := 256
	k := 17
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(k*i) / float64(n))
	}
	ps, err := PowerSpectrum(x)
	if err != nil {
		t.Fatal(err)
	}
	// Unit sinusoid at exact bin: one-sided power 1/4 at bin k.
	if math.Abs(ps[k]-0.25) > 1e-9 {
		t.Fatalf("ps[%d] = %g, want 0.25", k, ps[k])
	}
	for i, p := range ps {
		if i != k && p > 1e-12 {
			t.Fatalf("leakage at bin %d: %g", i, p)
		}
	}
}

func TestPowerSpectrumDC(t *testing.T) {
	x := make([]float64, 64)
	for i := range x {
		x[i] = 3.0
	}
	ps, err := PowerSpectrum(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ps[0]-9) > 1e-9 {
		t.Fatalf("DC power = %g, want 9", ps[0])
	}
}

func TestPowerSpectrumPadsNonPow2(t *testing.T) {
	x := make([]float64, 100)
	ps, err := PowerSpectrum(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 128/2+1 {
		t.Fatalf("padded spectrum length = %d, want 65", len(ps))
	}
}

func TestDominantMode(t *testing.T) {
	n := 128
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.2 + 2*math.Sin(2*math.Pi*9*float64(i)/float64(n)) +
			0.5*math.Sin(2*math.Pi*30*float64(i)/float64(n))
	}
	k, p, err := DominantMode(x)
	if err != nil {
		t.Fatal(err)
	}
	if k != 9 {
		t.Fatalf("dominant mode = %d (power %g), want 9", k, p)
	}
}

func TestLinearity(t *testing.T) {
	n := 32
	a := make([]complex128, n)
	b := make([]complex128, n)
	for i := range a {
		a[i] = complex(float64(i), 0)
		b[i] = complex(0, float64(n-i))
	}
	sum := make([]complex128, n)
	for i := range sum {
		sum[i] = a[i] + b[i]
	}
	if Forward(a) != nil || Forward(b) != nil || Forward(sum) != nil {
		t.Fatal("fft failed")
	}
	for i := range sum {
		if cmplx.Abs(sum[i]-(a[i]+b[i])) > 1e-9 {
			t.Fatalf("linearity violated at bin %d", i)
		}
	}
}

func BenchmarkForward1024(b *testing.B) {
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(math.Sin(float64(i)), 0)
	}
	buf := make([]complex128, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		if err := Forward(buf); err != nil {
			b.Fatal(err)
		}
	}
}
