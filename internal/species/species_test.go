package species

import "testing"

func TestNewValidation(t *testing.T) {
	if _, err := New("", -1, 1, 0); err == nil {
		t.Error("accepted empty name")
	}
	if _, err := New("e", -1, 0, 0); err == nil {
		t.Error("accepted zero mass")
	}
	if _, err := New("e", 0, 1, 0); err == nil {
		t.Error("accepted zero charge")
	}
	if _, err := New("e", -1, 1, -1); err == nil {
		t.Error("accepted negative sort interval")
	}
}

func TestShouldSort(t *testing.T) {
	s, _ := New("electron", -1, 1, 10)
	if s.ShouldSort(0) {
		t.Error("must not sort at step 0")
	}
	if !s.ShouldSort(10) || !s.ShouldSort(20) {
		t.Error("must sort on multiples of the interval")
	}
	if s.ShouldSort(15) {
		t.Error("sorted off-interval")
	}
	never, _ := New("electron", -1, 1, 0)
	if never.ShouldSort(100) {
		t.Error("interval 0 must never sort")
	}
}
