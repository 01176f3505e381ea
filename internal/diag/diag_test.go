package diag

import (
	"math"
	"strings"
	"testing"

	"govpic/internal/field"
	"govpic/internal/grid"
	"govpic/internal/particle"
)

func TestHistoryTotalsAndDrift(t *testing.T) {
	var h History
	h.Add(EnergySample{Step: 0, EField: 1, BField: 2, Kinetic: []float64{3, 4}})
	h.Add(EnergySample{Step: 10, EField: 1.05, BField: 2, Kinetic: []float64{3, 4}})
	if h.Samples[0].Total != 10 {
		t.Fatalf("total = %g, want 10", h.Samples[0].Total)
	}
	if d := h.RelativeDrift(); math.Abs(d-0.005) > 1e-12 {
		t.Fatalf("drift = %g, want 0.005", d)
	}
}

func TestHistoryDriftDegenerate(t *testing.T) {
	var h History
	if h.RelativeDrift() != 0 {
		t.Fatal("empty history drift nonzero")
	}
}

// planeWave fills a quasi-1D field with a ±x-going wave of amplitude e0.
func planeWave(g *grid.Grid, f *field.Fields, e0 float64, forward bool) {
	k := 2 * math.Pi / (float64(g.NX) * g.DX) * 4
	sign := 1.0
	if !forward {
		sign = -1
	}
	for ix := 1; ix <= g.NX; ix++ {
		xe := float64(ix-1) * g.DX
		xb := (float64(ix-1) + 0.5) * g.DX
		f.Ey[g.Voxel(ix, 1, 1)] = float32(e0 * math.Sin(k*xe))
		f.Bz[g.Voxel(ix, 1, 1)] = float32(sign * e0 * math.Sin(k*xb))
	}
	f.UpdateGhostE()
	f.UpdateGhostB()
}

func TestPoyntingSplitForwardWave(t *testing.T) {
	g := grid.MustNew(64, 1, 1, 0.5, 1, 1)
	f := field.NewPeriodic(g)
	planeWave(g, f, 0.1, true)
	// Average over all planes: S− must be tiny compared to S+.
	var fw, bw float64
	for ix := 2; ix < 64; ix++ {
		a, b, _, _ := PoyntingSplit(f, ix)
		fw += a
		bw += b
	}
	if bw > 0.01*fw {
		t.Fatalf("forward wave leaked backward: S+=%g S−=%g", fw, bw)
	}
}

func TestPoyntingSplitBackwardWave(t *testing.T) {
	g := grid.MustNew(64, 1, 1, 0.5, 1, 1)
	f := field.NewPeriodic(g)
	planeWave(g, f, 0.1, false)
	var fw, bw float64
	for ix := 2; ix < 64; ix++ {
		a, b, _, _ := PoyntingSplit(f, ix)
		fw += a
		bw += b
	}
	if fw > 0.01*bw {
		t.Fatalf("backward wave leaked forward: S+=%g S−=%g", fw, bw)
	}
}

func TestPoyntingEzPolarization(t *testing.T) {
	g := grid.MustNew(64, 1, 1, 0.5, 1, 1)
	f := field.NewPeriodic(g)
	k := 2 * math.Pi / 32 * 4
	for ix := 1; ix <= 64; ix++ {
		xe := float64(ix-1) * 0.5
		xb := (float64(ix-1) + 0.5) * 0.5
		f.Ez[g.Voxel(ix, 1, 1)] = float32(0.1 * math.Sin(k*xe))
		f.By[g.Voxel(ix, 1, 1)] = float32(-0.1 * math.Sin(k*xb)) // forward: By = −Ez
	}
	f.UpdateGhostE()
	f.UpdateGhostB()
	var fw, bw float64
	for ix := 2; ix < 64; ix++ {
		a, b, _, _ := PoyntingSplit(f, ix)
		fw += a
		bw += b
	}
	if bw > 0.01*fw {
		t.Fatalf("Ez-polarized forward wave leaked: S+=%g S−=%g", fw, bw)
	}
}

func TestReflectometer(t *testing.T) {
	g := grid.MustNew(64, 1, 1, 0.5, 1, 1)
	f := field.NewPeriodic(g)
	// Superpose forward amplitude 0.1 and backward amplitude 0.05:
	// reflectivity = (0.05/0.1)² = 0.25.
	k := 2 * math.Pi / 32 * 4
	for ix := 1; ix <= 64; ix++ {
		xe := float64(ix-1) * 0.5
		xb := (float64(ix-1) + 0.5) * 0.5
		f.Ey[g.Voxel(ix, 1, 1)] = float32(0.1*math.Sin(k*xe) + 0.05*math.Cos(2*k*xe))
		f.Bz[g.Voxel(ix, 1, 1)] = float32(0.1*math.Sin(k*xb) - 0.05*math.Cos(2*k*xb))
	}
	f.UpdateGhostE()
	f.UpdateGhostB()
	var r Reflectometer
	if r.Reflectivity() != 0 {
		t.Fatal("empty reflectometer reads nonzero")
	}
	for ix := 2; ix < 64; ix++ {
		fw, bw, back, n := PoyntingSplit(f, ix)
		if n != 1 {
			t.Fatalf("plane of a 1×1 grid summed %d cells", n)
		}
		r.Add(float64(ix), fw, bw, back)
	}
	// Averaged over the planes the standing pattern cancels, leaving the
	// flux ratio.
	if got := r.Reflectivity(); math.Abs(got-0.25) > 0.05 {
		t.Fatalf("reflectivity = %g, want ≈0.25", got)
	}
	if len(r.Times) != 62 || len(r.BackField) != 62 {
		t.Fatal("recording did not capture samples")
	}
}

func TestBurstiness(t *testing.T) {
	r := &Reflectometer{}
	r.Backward = []float64{1, 1, 1, 1}
	if b := r.Burstiness(); b > 1e-12 {
		t.Fatalf("constant series burstiness = %g", b)
	}
	r.Backward = []float64{0, 0, 0, 10}
	if b := r.Burstiness(); b < 1 {
		t.Fatalf("spiky series burstiness = %g, want >1", b)
	}
}

func TestDistUx(t *testing.T) {
	g := grid.MustNew(10, 1, 1, 1, 1, 1)
	buf := particle.NewBuffer(0)
	buf.Append(particle.Particle{Voxel: int32(g.Voxel(2, 1, 1)), Ux: 0.5, W: 2})
	buf.Append(particle.Particle{Voxel: int32(g.Voxel(8, 1, 1)), Ux: 0.5, W: 1}) // outside window
	buf.Append(particle.Particle{Voxel: int32(g.Voxel(3, 1, 1)), Ux: -0.5, W: 1})
	h := DistUx(g, buf, 0, 5, -1, 1, 4)
	// Bins: [-1,-0.5), [-0.5,0), [0,0.5), [0.5,1).
	if h[3] != 2 {
		t.Fatalf("bin 3 = %g, want 2", h[3])
	}
	if h[1] != 1 {
		t.Fatalf("bin 1 = %g, want 1", h[1])
	}
	if h[0] != 0 || h[2] != 0 {
		t.Fatalf("unexpected occupancy: %v", h)
	}
}

func TestPlateauMetric(t *testing.T) {
	// Build a Maxwellian histogram, then flatten the tail at uphi.
	uth := 0.1
	bins := 200
	umin, umax := -1.0, 1.0
	du := (umax - umin) / float64(bins)
	maxw := make([]float64, bins)
	for b := range maxw {
		u := umin + (float64(b)+0.5)*du
		maxw[b] = 1000 * math.Exp(-u*u/(2*uth*uth))
	}
	uphi := 0.45 // 4.5 uth: deep in the tail
	if m := PlateauMetric(maxw, umin, umax, uth, uphi); math.Abs(m-1) > 0.2 {
		t.Fatalf("pure Maxwellian plateau metric = %g, want ≈1", m)
	}
	flat := append([]float64(nil), maxw...)
	for b := range flat {
		u := umin + (float64(b)+0.5)*du
		if u > 0.3 && u < 0.6 {
			flat[b] = 1000 * math.Exp(-0.3*0.3/(2*uth*uth)) // plateau at f(0.3)
		}
	}
	if m := PlateauMetric(flat, umin, umax, uth, uphi); m < 10 {
		t.Fatalf("flattened distribution plateau metric = %g, want ≫1", m)
	}
}

func TestLineOutEx(t *testing.T) {
	g := grid.MustNew(5, 2, 2, 1, 1, 1)
	f := field.NewPeriodic(g)
	for ix := 1; ix <= 5; ix++ {
		f.Ex[g.Voxel(ix, 1, 1)] = float32(ix)
	}
	line := LineOutEx(f, 1, 1)
	if len(line) != 5 || line[0] != 1 || line[4] != 5 {
		t.Fatalf("lineout = %v", line)
	}
}

func TestWriteCSV(t *testing.T) {
	var sb strings.Builder
	err := WriteCSV(&sb, []string{"a", "b"}, [][]float64{{1, 2}, {3.5, -4}})
	if err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,2\n3.5,-4\n"
	if sb.String() != want {
		t.Fatalf("csv = %q, want %q", sb.String(), want)
	}
}

func TestDominantFrequency(t *testing.T) {
	r := &Reflectometer{}
	// Synthesize a recorded backward field at ω = 0.63 sampled at dt=0.2.
	dt := 0.2
	omega := 0.63
	for i := 0; i < 512; i++ {
		tm := float64(i) * dt
		r.Times = append(r.Times, tm)
		r.BackField = append(r.BackField, math.Sin(omega*tm))
	}
	got := r.DominantFrequency()
	if math.Abs(got-omega)/omega > 0.05 {
		t.Fatalf("dominant frequency %g, want %g", got, omega)
	}
}

func TestDominantFrequencyDegenerate(t *testing.T) {
	r := &Reflectometer{}
	if r.DominantFrequency() != 0 {
		t.Fatal("empty series should give 0")
	}
}
