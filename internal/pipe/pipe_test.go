package pipe

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8} {
		p := New(w)
		for _, n := range []int{0, 1, 5, 100} {
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
