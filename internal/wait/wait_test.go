package wait

import (
	"testing"
	"time"
)

// TestUntil drives Until with a condition that holds at the first look,
// after k looks, or never: it reports true in the first two cases, and
// false in the last only after at least Window has passed. k = 10 is
// below the 17th look, the first after a clock read, so no timing
// reaches the second case.
func TestUntil(t *testing.T) {
	for _, tc := range []struct {
		name    string
		readyAt int // the look at which ready first holds; 0: never
		want    bool
	}{
		{"first look", 1, true},
		{"after 10 looks", 10, true},
		{"never", 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			looks := 0
			start := time.Now()
			got := Until(func() bool {
				looks++
				return looks == tc.readyAt
			})
			elapsed := time.Since(start)
			if got != tc.want {
				t.Fatalf("Until = %v after %d looks, want %v", got, looks, tc.want)
			}
			if tc.want && looks != tc.readyAt {
				t.Errorf("Until looked %d times, want %d", looks, tc.readyAt)
			}
			if !tc.want && elapsed < Window {
				t.Errorf("Until gave up after %v, before the %v window", elapsed, Window)
			}
		})
	}
}

// TestUntilAllocs: a closure over the caller's state does not escape,
// so waiting allocates nothing.
func TestUntilAllocs(t *testing.T) {
	n := 0
	if got := testing.AllocsPerRun(20, func() { Until(func() bool { n++; return n%3 == 0 }) }); got != 0 {
		t.Errorf("Until allocates %.2f objects per wait, the budget 0", got)
	}
}
