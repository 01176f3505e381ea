package perf

import (
	"strings"
	"testing"
	"time"
)

func TestBreakdownAccumulates(t *testing.T) {
	var b Breakdown
	b.Start(Push)
	time.Sleep(2 * time.Millisecond)
	b.Stop(Push)
	if b.Elapsed(Push) < time.Millisecond {
		t.Fatalf("push elapsed %v", b.Elapsed(Push))
	}
	if b.Elapsed(Sort) != 0 {
		t.Fatal("untouched section nonzero")
	}
	if b.Fraction(Push) != 1 {
		t.Fatalf("push share = %g, want 1 (only timed section)", b.Fraction(Push))
	}
	b.AddParallel(Push, 4*time.Millisecond, 2*time.Millisecond)
	if c := b.Concurrency(Push); c != 2 {
		t.Fatalf("push concurrency = %g, want 2", c)
	}
}

func TestStopWithoutStartIsNoop(t *testing.T) {
	var b Breakdown
	b.Stop(Field) // must not panic or accumulate
	if b.Elapsed(Field) != 0 {
		t.Fatal("Stop without Start accumulated time")
	}
}

func TestTimeHelper(t *testing.T) {
	var b Breakdown
	b.Time(Comm, func() { time.Sleep(time.Millisecond) })
	if b.Elapsed(Comm) < 500*time.Microsecond {
		t.Fatal("Time did not accumulate")
	}
}

// TestFractionsSumToOne sets the sections directly (a Breakdown is a
// plain value), so no sleep's overshoot can reorder them;
// TestTimeHelper covers Time.
func TestFractionsSumToOne(t *testing.T) {
	var b Breakdown
	b.Sections[Push] = 2 * time.Millisecond
	b.Sections[Field] = time.Millisecond
	var sum float64
	for s := Section(0); s < NumSections; s++ {
		sum += b.Fraction(s)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("fractions sum to %g", sum)
	}
	if b.Fraction(Push) <= b.Fraction(Field) {
		t.Fatal("push should dominate")
	}
}

func TestFractionEmpty(t *testing.T) {
	var b Breakdown
	if b.Fraction(Push) != 0 {
		t.Fatal("empty breakdown has nonzero fraction")
	}
}

func TestResetAndMerge(t *testing.T) {
	var a, b Breakdown
	a.Time(Push, func() { time.Sleep(time.Millisecond) })
	b.Time(Push, func() { time.Sleep(time.Millisecond) })
	a.Merge(&b)
	if a.Elapsed(Push) < 2*time.Millisecond {
		t.Fatal("merge did not add")
	}
	a.Reset()
	if a.Total() != 0 {
		t.Fatal("reset left time")
	}
}

func TestReportContainsSections(t *testing.T) {
	var b Breakdown
	b.Time(Sort, func() {})
	r := b.Report()
	for _, name := range []string{"push", "sort", "field", "comm", "diag", "total"} {
		if !strings.Contains(r, name) {
			t.Fatalf("report missing %q:\n%s", name, r)
		}
	}
}

func TestRates(t *testing.T) {
	if got := Rate(1000, time.Second); got != 1000 {
		t.Fatalf("Rate = %g", got)
	}
	if Rate(5, 0) != 0 {
		t.Fatal("zero duration must give zero rate")
	}
}

func TestSectionStrings(t *testing.T) {
	if Push.String() != "push" || Diag.String() != "diag" {
		t.Fatal("section names wrong")
	}
}

// TestSharesWithOverlapNotDoubleCounted is the accounting guarantee of
// the overlap accounting: comm wait/overlap time is tracked outside the
// section accumulators, so recording a large overlapped-flight figure
// (which by construction ran concurrently with a timed compute section)
// must not push the section shares past 1.0.
func TestSharesWithOverlapNotDoubleCounted(t *testing.T) {
	var b Breakdown
	b.Time(Push, func() { time.Sleep(4 * time.Millisecond) })
	b.Time(Comm, func() { time.Sleep(time.Millisecond) })
	// Overlap larger than the comm section itself: the flight ran under
	// the push section's wall time.
	b.AddCommWait(500 * time.Microsecond)
	b.AddCommOverlap(3 * time.Millisecond)
	var sum float64
	for s := Section(0); s < NumSections; s++ {
		sum += b.Fraction(s)
	}
	if sum > 1.001 {
		t.Fatalf("shares sum to %g with overlap recorded, want <= 1", sum)
	}
	if sum < 0.999 {
		t.Fatalf("shares sum to %g, want ~1", sum)
	}
	if b.CommWait() != 500*time.Microsecond || b.CommOverlap() != 3*time.Millisecond {
		t.Fatalf("wait/overlap getters: %v, %v", b.CommWait(), b.CommOverlap())
	}
}

// TestCommWaitOverlapMergeResetReport covers the lifecycle of the new
// fields alongside the section accumulators.
func TestCommWaitOverlapMergeResetReport(t *testing.T) {
	var a, b Breakdown
	a.AddCommWait(time.Millisecond)
	a.AddCommOverlap(2 * time.Millisecond)
	b.AddCommWait(3 * time.Millisecond)
	b.AddCommOverlap(4 * time.Millisecond)
	a.Merge(&b)
	if a.CommWait() != 4*time.Millisecond || a.CommOverlap() != 6*time.Millisecond {
		t.Fatalf("merge: wait %v overlap %v", a.CommWait(), a.CommOverlap())
	}
	a.Time(Comm, func() {})
	r := a.Report()
	if !strings.Contains(r, "comm i/o") || !strings.Contains(r, "overlapped with compute") {
		t.Fatalf("report missing overlap line:\n%s", r)
	}
	a.Reset()
	if a.CommWait() != 0 || a.CommOverlap() != 0 {
		t.Fatal("reset left comm wait/overlap time")
	}
	var c Breakdown
	if strings.Contains(c.Report(), "comm i/o") {
		t.Fatal("empty breakdown reports an overlap line")
	}
}
