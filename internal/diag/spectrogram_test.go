package diag

import (
	"math"
	"testing"
)

func TestSpectrogramFindsTravelingWave(t *testing.T) {
	// Synthesize a traveling wave E(x,t) = sin(kx − ωt) and check the
	// ridge at the seeded k sits at the seeded ω.
	nx, nt := 64, 256
	dx, dt := 0.5, 0.3
	s := NewSpectrogram(nx, dx, dt)
	mode := 5
	k := 2 * math.Pi * float64(mode) / (float64(nx) * dx)
	omega := 0.9
	for it := 0; it < nt; it++ {
		line := make([]float64, nx)
		for ix := 0; ix < nx; ix++ {
			line[ix] = math.Sin(k*float64(ix)*dx - omega*float64(it)*dt)
		}
		if err := s.Add(line); err != nil {
			t.Fatal(err)
		}
	}
	power, _, dw, err := s.Compute()
	if err != nil {
		t.Fatal(err)
	}
	got := s.RidgeFrequency(power, dw, mode, 0)
	if math.Abs(got-omega) > 2*dw {
		t.Fatalf("ridge at ω = %g, want %g (dω = %g)", got, omega, dw)
	}
	// Other k-modes must carry far less power at that frequency.
	iw := int(omega / dw)
	if power[mode][iw] < 50*power[mode+3][iw] {
		t.Fatalf("ridge not localized in k: %g vs %g", power[mode][iw], power[mode+3][iw])
	}
}

func TestRidgeFrequencyFloor(t *testing.T) {
	// A synthetic spectrum whose leakage peak in bin 1 outbids the branch
	// ridge in bin 12: the floor keeps the search on the branch.
	dw := 0.05
	row := make([]float64, 33)
	for iw := range row {
		row[iw] = 1e-3
	}
	row[0], row[1], row[12] = 50, 9, 4
	power := [][]float64{nil, row}
	s := NewSpectrogram(2, 1, 1)
	if got := s.RidgeFrequency(power, dw, 1, 0); got != dw {
		t.Fatalf("unfloored ridge at ω = %g, want the leakage bin %g", got, dw)
	}
	if got := s.RidgeFrequency(power, dw, 1, 10*dw); got != 12*dw {
		t.Fatalf("floored ridge at ω = %g, want the branch bin %g", got, 12*dw)
	}
	if got := s.RidgeFrequency(power, dw, 1, 12*dw); got != 12*dw {
		t.Fatalf("a floor on the ridge's own bin moved it to ω = %g", got)
	}
}

func TestSpectrogramValidation(t *testing.T) {
	s := NewSpectrogram(16, 1, 1)
	if err := s.Add(make([]float64, 8)); err == nil {
		t.Fatal("accepted wrong line length")
	}
	if _, _, _, err := s.Compute(); err == nil {
		t.Fatal("computed with too few samples")
	}
	if len(s.lines) != 0 {
		t.Fatal("bad sample count")
	}
}
