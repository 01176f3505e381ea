package units

import (
	"math"
	"testing"
)

func close(a, b, rel float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= rel*m
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
