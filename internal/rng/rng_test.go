package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42, 0)
	b := New(42, 0)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

// TestMakeIsNew: Make's value and New's pointer start the same stream.
func TestMakeIsNew(t *testing.T) {
	for _, stream := range []int{0, 1, 777, 1 << 20} {
		a, b := Make(42, stream), New(42, stream)
		for i := 0; i < 100; i++ {
			if x, y := a.Uint64(), b.Uint64(); x != y {
				t.Fatalf("stream %d: draw %d is %#x by value, %#x by pointer", stream, i, x, y)
			}
		}
	}
}

func TestStreamsIndependent(t *testing.T) {
	a := New(42, 0)
	b := New(42, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams 0 and 1 collided %d/1000 times", same)
	}
}

func TestSeedsIndependent(t *testing.T) {
	a := New(1, 0)
	b := New(2, 0)
	if a.Uint64() == b.Uint64() {
		t.Fatal("different seeds produced identical first draw")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7, 0)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(7, 3)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %g, want ≈0.5", mean)
	}
}

func TestUniformRange(t *testing.T) {
	r := New(9, 0)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Uniform out of range: %g", v)
		}
	}
}

func TestIntnUnbiased(t *testing.T) {
	r := New(11, 0)
	const n, draws = 7, 700000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("Intn(%d) bucket %d: %d draws, want ≈%g", n, i, c, want)
		}
	}
}

func TestIntnPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1, 0).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := New(13, 0)
	const n = 400000
	var sum, sum2, sum3 float64
	for i := 0; i < n; i++ {
		x := r.Normal()
		sum += x
		sum2 += x * x
		sum3 += x * x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	skew := sum3 / n
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %g", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %g", variance)
	}
	if math.Abs(skew) > 0.03 {
		t.Fatalf("normal third moment = %g", skew)
	}
}

func TestNormalTails(t *testing.T) {
	// P(|X|>3) ≈ 0.0027.
	r := New(17, 0)
	const n = 300000
	tail := 0
	for i := 0; i < n; i++ {
		if math.Abs(r.Normal()) > 3 {
			tail++
		}
	}
	frac := float64(tail) / n
	if frac < 0.0015 || frac > 0.0045 {
		t.Fatalf("3-sigma tail fraction = %g, want ≈0.0027", frac)
	}
}

func TestMaxwellianVariance(t *testing.T) {
	r := New(19, 0)
	const uth = 0.07
	const n = 200000
	var sum2 float64
	for i := 0; i < n; i++ {
		u := r.Maxwellian(uth)
		sum2 += u * u
	}
	got := sum2 / n
	want := uth * uth
	if math.Abs(got-want) > 0.03*want {
		t.Fatalf("Maxwellian variance = %g, want %g", got, want)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct{ a, b, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestMul64Property(t *testing.T) {
	// Verify against big-number identity using 32-bit inputs where the
	// product fits in 64 bits exactly.
	f := func(a, b uint32) bool {
		hi, lo := mul64(uint64(a), uint64(b))
		return hi == 0 && lo == uint64(a)*uint64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnWithinBound(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		bound := int(n%1000) + 1
		r := New(seed, 0)
		for i := 0; i < 50; i++ {
			v := r.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1, 0)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkNormal(b *testing.B) {
	r := New(1, 0)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Normal()
	}
	_ = sink
}
