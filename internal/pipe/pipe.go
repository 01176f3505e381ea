// Package pipe implements the intra-rank pipeline layer: a small
// worker-goroutine pool that parallelizes a rank's particle and voxel
// sweeps, mirroring VPIC's second level of parallelism on Roadrunner
// (MPI ranks outside, Cell SPE "pipelines" inside).
//
// The crucial design rule is that the *numerical* partition of work is
// defined by a fixed pipeline count (NumBlocks, matching the 8 SPEs of
// one Cell), never by the worker count: workers are interchangeable
// labor that execute pipelines, and every floating-point accumulation
// chain is tied to a pipeline, not a worker. Results are therefore
// bit-identical for any worker count — W=1 and W=8 produce the same
// fields — and run-to-run deterministic regardless of goroutine
// scheduling.
package pipe

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// NumBlocks is the fixed number of pipeline blocks every partitioned
// sweep uses — the analogue of the 8 SPE pipelines per Cell in the
// paper's Roadrunner runs. It bounds the useful worker count and, being
// a constant, keeps the floating-point reduction structure independent
// of the machine and of the configured worker count.
const NumBlocks = 8

// DefaultWorkers returns the default worker count per rank:
// min(NumCPU/nranks, NumBlocks), at least 1 — share the machine across
// the rank goroutines, capped by the pipeline count.
func DefaultWorkers(nranks int) int {
	if nranks < 1 {
		nranks = 1
	}
	w := runtime.NumCPU() / nranks
	if w < 1 {
		w = 1
	}
	if w > NumBlocks {
		w = NumBlocks
	}
	return w
}

// BlockBounds returns the [lo,hi) bounds of block b when n items are
// split into nb near-equal contiguous blocks. The split depends only on
// (n, nb), so the partition is deterministic.
func BlockBounds(n, nb, b int) (lo, hi int) {
	return b * n / nb, (b + 1) * n / nb
}

// AlignedRange returns the [lo,hi) bounds of block b when the items
// [lo0,hi0) are split into nb near-equal contiguous blocks whose
// interior cut points are rounded up to multiples of align — used to
// hand each pipeline whole AoSoA lane blocks, so concurrent sweeps
// share no storage block at the seams and the push sweep sees full
// spans. The cuts depend only on (lo0, hi0, nb, align), never on
// the worker count, preserving the package's determinism rule. The end
// cuts stay exactly lo0 and hi0, so the union of the nb ranges covers
// the input for any alignment; small ranges may leave trailing blocks
// empty. align must be a power of two.
func AlignedRange(lo0, hi0, nb, b, align int) (lo, hi int) {
	cut := func(k int) int {
		if k <= 0 {
			return lo0
		}
		if k >= nb {
			return hi0
		}
		c := lo0 + k*(hi0-lo0)/nb
		c = (c + align - 1) &^ (align - 1)
		if c > hi0 {
			c = hi0
		}
		return c
	}
	return cut(b), cut(b + 1)
}

// Pool runs parallel loops on up to W concurrent goroutines and
// accumulates busy/wall time for utilization reporting. A nil *Pool is
// valid and runs everything inline on the caller (with no accounting),
// so substrate packages can accept an optional pool.
//
// A pool of one worker reads no clock: its regions run inline, and
// TakeStats books the enclosing span the caller passes as both busy and
// wall. Callers that run a region every step keep its task as a func
// value built once (a method value stored beside the task's state), so
// a one-worker region allocates nothing.
//
// A Pool is owned by one rank: Run/Range must not be called
// concurrently with each other or with TakeStats.
type Pool struct {
	w int

	// Accumulated parallel-region accounting since the last TakeStats.
	// busy is summed across workers (atomically, then read after the
	// region barrier); wall is the regions' elapsed time. ran marks a
	// one-worker pool's untimed regions.
	busy atomic.Int64
	wall time.Duration
	ran  bool
}

// New returns a pool of w workers (clamped to [1, NumBlocks]).
func New(w int) *Pool {
	if w < 1 {
		w = 1
	}
	if w > NumBlocks {
		w = NumBlocks
	}
	return &Pool{w: w}
}

// Workers returns the pool's worker count (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.w
}

// Run invokes fn(i) for every i in [0,n), dynamically scheduled over
// the pool's workers (the caller participates as one of them), and
// returns after all invocations complete. Tasks must write to disjoint
// state; the return acts as a full barrier (happens-before for all
// task effects).
func (p *Pool) Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p == nil || p.w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		if p != nil {
			p.ran = true
		}
		return
	}
	w := p.w
	if w > n {
		w = n
	}
	start := time.Now()
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		d := time.Since(start)
		p.busy.Add(int64(d))
		p.wall += d
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	worker := func() {
		t0 := time.Now()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				break
			}
			fn(i)
		}
		p.busy.Add(int64(time.Since(t0)))
	}
	wg.Add(w - 1)
	for g := 1; g < w; g++ {
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	worker()
	wg.Wait()
	p.wall += time.Since(start)
}

// Range splits [0,n) into one contiguous chunk per worker and invokes
// fn(lo, hi) for each chunk concurrently — the static split used for
// voxel sweeps, where every index costs the same. fn must only touch
// state derived from its own [lo,hi) range.
func (p *Pool) Range(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if p == nil || p.w == 1 {
		fn(0, n)
		if p != nil {
			p.ran = true
		}
		return
	}
	w := p.w
	if w > n {
		w = n
	}
	if w == 1 {
		// Single chunk: still account the region when pooled.
		p.Run(1, func(int) { fn(0, n) })
		return
	}
	p.Run(w, func(c int) {
		lo, hi := BlockBounds(n, w, c)
		fn(lo, hi)
	})
}

// TakeStats returns the busy and wall time accumulated by parallel
// regions since the previous call, and resets both. busy/wall is the
// average number of active workers ("effective concurrency") over the
// regions. A one-worker pool that ran a region since the previous call
// reports span — the caller's time since then, the enclosing section —
// as both. A nil pool reports zeros.
func (p *Pool) TakeStats(span time.Duration) (busy, wall time.Duration) {
	if p == nil {
		return 0, 0
	}
	if p.w == 1 {
		if !p.ran {
			return 0, 0
		}
		p.ran = false
		return span, span
	}
	busy = time.Duration(p.busy.Swap(0))
	wall = p.wall
	p.wall = 0
	return busy, wall
}
