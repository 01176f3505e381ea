package pipe

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"govpic/internal/wait"
)

func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8} {
		p := New(w)
		for _, n := range []int{0, 1, 5, 100, maxTasks + 5} {
			hits := make([]atomic.Int32, n)
			p.Run(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("W=%d n=%d: index %d hit %d times", w, n, i, got)
				}
			}
		}
	}
}

func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool workers = %d", p.Workers())
	}
	sum := 0
	p.Run(10, func(i int) { sum += i }) // inline: no race
	if sum != 45 {
		t.Fatalf("nil pool Run sum = %d", sum)
	}
	covered := make([]bool, 7)
	p.Range(7, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			covered[i] = true
		}
	})
	for i, c := range covered {
		if !c {
			t.Fatalf("nil pool Range missed %d", i)
		}
	}
	if b, w := p.TakeStats(time.Second); b != 0 || w != 0 {
		t.Fatal("nil pool reported stats")
	}
}

func TestRangePartitionsExactly(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8} {
		p := New(w)
		for _, n := range []int{1, 7, 8, 1000} {
			hits := make([]atomic.Int32, n)
			p.Range(n, func(lo, hi int) {
				if lo > hi {
					t.Errorf("inverted chunk [%d,%d)", lo, hi)
				}
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("W=%d n=%d: index %d covered %d times", w, n, i, got)
				}
			}
		}
	}
}

func TestBlockBoundsPartition(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 1000003} {
		prev := 0
		total := 0
		for b := 0; b < NumBlocks; b++ {
			lo, hi := BlockBounds(n, NumBlocks, b)
			if lo != prev {
				t.Fatalf("n=%d block %d starts at %d, want %d", n, b, lo, prev)
			}
			if hi < lo {
				t.Fatalf("n=%d block %d inverted [%d,%d)", n, b, lo, hi)
			}
			total += hi - lo
			prev = hi
		}
		if prev != n || total != n {
			t.Fatalf("n=%d blocks cover %d ending at %d", n, total, prev)
		}
	}
}

func TestWorkerClamp(t *testing.T) {
	if New(0).Workers() != 1 {
		t.Fatal("w=0 not clamped to 1")
	}
	if New(100).Workers() != NumBlocks {
		t.Fatalf("w=100 not clamped to NumBlocks")
	}
	if DefaultWorkers(1) < 1 || DefaultWorkers(1) > NumBlocks {
		t.Fatalf("DefaultWorkers(1) = %d out of range", DefaultWorkers(1))
	}
	if DefaultWorkers(1<<20) != 1 {
		t.Fatal("huge rank count must give 1 worker")
	}
}

func TestTakeStatsAccumulatesAndResets(t *testing.T) {
	p := New(4)
	p.Run(64, func(i int) {
		s := 0.0
		for j := 0; j < 10000; j++ {
			s += float64(j)
		}
		_ = s
	})
	busy, wall := p.TakeStats(0)
	if busy <= 0 || wall <= 0 {
		t.Fatalf("stats empty after Run: busy=%v wall=%v", busy, wall)
	}
	if b2, w2 := p.TakeStats(0); b2 != 0 || w2 != 0 {
		t.Fatal("TakeStats did not reset")
	}
}

// TestOneWorkerBooksSpan: a one-worker pool reads no clock, so a span
// with a region in it is booked whole as busy and wall, and a span
// without one books nothing.
func TestOneWorkerBooksSpan(t *testing.T) {
	p := New(1)
	if b, w := p.TakeStats(time.Second); b != 0 || w != 0 {
		t.Fatalf("no region ran, TakeStats = (%v, %v)", b, w)
	}
	p.Range(5, func(lo, hi int) {})
	if b, w := p.TakeStats(time.Second); b != time.Second || w != time.Second {
		t.Fatalf("after a region, TakeStats = (%v, %v), want the span twice", b, w)
	}
	if b, w := p.TakeStats(time.Second); b != 0 || w != 0 {
		t.Fatalf("TakeStats did not reset: (%v, %v)", b, w)
	}
}

// marks is one task func of TestBackToBackRegions: every index it runs
// is counted in its own array, so an index run by another region's
// func, run twice or not run shows up in the check after the region.
type marks struct {
	hits [100]atomic.Int32
	task func(i int)
	span func(lo, hi int)
}

func newMarks() *marks {
	m := &marks{}
	m.task = func(i int) { m.hits[i].Add(1) }
	m.span = func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m.hits[i].Add(1)
		}
	}
	return m
}

// TestBackToBackRegions publishes about 10⁴ regions back to back, so
// helpers of one region are still looking while the next is published.
// The regions cycle through Run with one func, Run with another and
// Range with a third, and through task counts 1, W−1, W, 8 and 100, so
// consecutive regions differ in func and in count. After each region
// the test asserts that every index of the region ran exactly once,
// with that region's own func, and that no other index or func ran.
func TestBackToBackRegions(t *testing.T) {
	const regions = 3500
	fns := [3]*marks{newMarks(), newMarks(), newMarks()}
	for _, w := range []int{2, 3, 8} {
		p := New(w)
		ns := []int{1, w - 1, w, 8, 100}
		for r := 0; r < regions; r++ {
			k, n := r%len(fns), ns[r%len(ns)]
			if k == 2 {
				p.Range(n, fns[k].span)
			} else {
				p.Run(n, fns[k].task)
			}
			for j, m := range fns {
				for i := range m.hits {
					want := int32(0)
					if j == k && i < n {
						want = 1
					}
					if got := m.hits[i].Swap(0); got != want {
						t.Fatalf("W=%d region %d (func %d, n=%d): func %d ran index %d %d times, want %d",
							w, r, k, n, j, i, got, want)
					}
				}
			}
		}
	}
}

// TestHelpersExitWhenIdle: a multi-worker pool's helpers outlive a
// region but not an idle spell. Once regions stop, the goroutine count
// falls back to its value before the pool within wait.Window plus a
// polled deadline, and the next region starts fresh helpers.
func TestHelpersExitWhenIdle(t *testing.T) {
	base := runtime.NumGoroutine()
	p := New(8)
	for round := 0; round < 2; round++ {
		hits := make([]atomic.Int32, 64)
		for r := 0; r < 100; r++ {
			p.Run(len(hits), func(i int) { hits[i].Add(1) })
		}
		for i := range hits {
			if got := hits[i].Load(); got != 100 {
				t.Fatalf("round %d: index %d ran %d times in 100 regions", round, i, got)
			}
		}
		for deadline := time.Now().Add(wait.Window + 5*time.Second); p.helpers.Load() > 0 || runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("round %d: %d helpers live, %d goroutines, %d before the pool:\n%s",
					round, p.helpers.Load(), runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestOversubscribedPoolsFinish: at GOMAXPROCS(1), two eight-worker
// pools on two goroutines share one processor with fourteen spinning
// helpers. A helper yields between looks, so every region still
// finishes: 1 000 regions each within a generous bound.
func TestOversubscribedPoolsFinish(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	done := make(chan int64, 2)
	for g := 0; g < 2; g++ {
		go func() {
			p := New(8)
			var sum atomic.Int64
			for r := 0; r < 1000; r++ {
				p.Run(NumBlocks, func(i int) { sum.Add(int64(i)) })
			}
			done <- sum.Load()
		}()
	}
	timeout := time.After(60 * time.Second)
	for g := 0; g < 2; g++ {
		select {
		case sum := <-done:
			if sum != 1000*28 {
				t.Errorf("pool summed %d, want %d", sum, 1000*28)
			}
		case <-timeout:
			t.Fatal("two oversubscribed pools did not finish 1000 regions in 60 s")
		}
	}
}

// TestRegionAllocs is the pool's allocation budget: with its tasks
// bound once, a region allocates nothing at any worker count, including
// the single-chunk Range and the region that restarts exited helpers.
func TestRegionAllocs(t *testing.T) {
	task := func(i int) {}
	span := func(lo, hi int) {}
	for _, w := range []int{1, 2, 8} {
		p := New(w)
		for _, r := range []struct {
			name string
			run  func()
		}{
			{"Run(8)", func() { p.Run(8, task) }},
			{"Range(1)", func() { p.Range(1, span) }},
			{"Range(4)", func() { p.Range(4, span) }},
			{"Run(8) after an idle spell", func() {
				for p.helpers.Load() > 0 {
					time.Sleep(wait.Window)
				}
				p.Run(8, task)
			}},
		} {
			if got := testing.AllocsPerRun(20, r.run); got != 0 {
				t.Errorf("W=%d: %s allocates %.2f objects per call, the budget 0", w, r.name, got)
			}
		}
	}
}

// BenchmarkDispatch is the package's twin of the bench's
// pipe.dispatch_us probe: one region of NumBlocks empty tasks per op.
func BenchmarkDispatch(b *testing.B) {
	noop := func(int) {}
	for _, w := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("W%d", w), func(b *testing.B) {
			p := New(w)
			for i := 0; i < b.N; i++ {
				p.Run(NumBlocks, noop)
			}
		})
	}
}
