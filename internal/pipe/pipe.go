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
//
// Like the SPEs, which the paper's code fed every step, a pool's
// workers persist: a multi-worker pool's helper goroutines outlive a
// region and pick up the next one from a single generation-tagged claim
// word, then exit on their own once wait.Until sees no new word (see
// Pool). They only decide which goroutine runs a pipeline's task, never
// what it computes, so persistence moves no bit either.
package pipe

import (
	"runtime"
	"sync/atomic"
	"time"

	"govpic/internal/wait"
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
// A pool of one worker reads no clock and starts no goroutine: its
// regions run inline, and TakeStats books the enclosing span the caller
// passes as both busy and wall. Callers that run a region every step
// keep its task as a func value built once (a method value stored
// beside the task's state), so a region allocates nothing at any W.
//
// A pool of W > 1 workers keeps its W−1 helper goroutines between
// regions, as VPIC's pipelines and the paper's SPEs persist across a
// step. A region is published by storing one atomic word that packs
// its generation, task count and next task; the caller and the helpers
// claim a task with one CAS on that word. A helper holding a word of an
// earlier generation fails its CAS, so it never runs a task of a region
// it did not see published, and every claimant reads the task func only
// after its claim succeeds. The caller takes tasks like a helper and
// returns when the region's done-count reaches its task count, never
// waiting for a helper that claimed nothing. A helper that sees the
// word unchanged for a wait.Window exits, and the next region starts a
// fresh one, so a pool needs no Close. Which goroutine runs a task
// never changes what the task computes, so the helpers move no bit of
// the result.
//
// A Pool is owned by one rank: Run/Range must not be called
// concurrently with each other or with TakeStats, nor from a task.
type Pool struct {
	w int

	// The published region. word packs gen<<32 | n<<16 | next; fn and
	// base are written before word is stored and read only by a
	// claimant. done counts the region's finished tasks; helpers counts
	// live helper goroutines, which only Run adds to. help is the helper
	// body, bound once so that starting a helper allocates nothing.
	word    atomic.Uint64
	fn      func(i int)
	base    int
	gen     uint64
	done    atomic.Int32
	helpers atomic.Int32
	help    func()

	// Range's operands, read by its chunk task, which New binds once.
	chunk  func(c int)
	rfn    func(lo, hi int)
	rn, rw int

	// Accumulated parallel-region accounting since the last TakeStats.
	// busy is summed over the claimants' task streaks (atomically, then
	// read after the region barrier), so a helper's idle spin is not
	// busy; wall is the regions' elapsed time. ran marks a one-worker
	// pool's untimed regions.
	busy atomic.Int64
	wall time.Duration
	ran  bool
}

// maxTasks is the most tasks one region word counts (16 bits); Run
// publishes a longer loop as consecutive regions.
const maxTasks = 1<<16 - 1

// New returns a pool of w workers (clamped to [1, NumBlocks]).
func New(w int) *Pool {
	if w < 1 {
		w = 1
	}
	if w > NumBlocks {
		w = NumBlocks
	}
	p := &Pool{w: w}
	p.help, p.chunk = p.helper, p.rangeChunk
	return p
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
	start := time.Now()
	if n == 1 {
		fn(0)
		d := time.Since(start)
		p.busy.Add(int64(d))
		p.wall += d
		return
	}
	for base := 0; base < n; base += maxTasks {
		p.region(base, min(n-base, maxTasks), fn)
	}
	p.wall += time.Since(start)
}

// region publishes tasks base..base+n−1 of fn, starts the helpers that
// have exited, takes tasks beside them and returns once all n are done.
func (p *Pool) region(base, n int, fn func(i int)) {
	p.fn, p.base = fn, base
	p.done.Store(0)
	p.gen++
	p.word.Store(p.gen<<32 | uint64(n)<<16)
	for want := int32(min(p.w, n) - 1); p.helpers.Load() < want; {
		p.helpers.Add(1)
		go p.help()
	}
	p.take()
	// A claimed task always finishes, so the owner waits again after a
	// window runs out rather than parking.
	for !wait.Until(func() bool { return p.done.Load() >= int32(n) }) {
	}
	p.fn = nil
}

// take claims and runs tasks of the published region until it has none
// left, and returns the last word it read. A claim is one CAS that
// advances next; it fails if a claim or a newer region changed the word
// since the load, so a claimant runs exactly the task its CAS took,
// with the fn published beside that generation. The claimant's streak,
// from its first claim to the end of its last task, is booked as busy
// and its tasks as done once, when the region has no task left: the
// region cannot end, nor a newer one be published, before that.
func (p *Pool) take() uint64 {
	var t0 time.Time
	var ran int32
	for {
		w := p.word.Load()
		next, n := w&0xffff, w>>16&0xffff
		if next >= n {
			if ran > 0 {
				p.busy.Add(int64(time.Since(t0)))
				p.done.Add(ran)
			}
			return w
		}
		if !p.word.CompareAndSwap(w, w+1) {
			continue
		}
		if ran == 0 {
			t0 = time.Now()
		}
		p.fn(p.base + int(next))
		ran++
	}
}

// helper is the body of a helper goroutine: it takes tasks of every
// region published while it lives, yielding between looks so a helper
// never holds a processor another goroutine is waiting for, and exits
// once the word has not changed for a wait.Window.
func (p *Pool) helper() {
	defer p.helpers.Add(-1)
	for last := p.take(); wait.Until(func() bool { return p.word.Load() != last }); {
		last = p.take()
	}
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
	p.rfn, p.rn, p.rw = fn, n, min(p.w, n)
	p.Run(p.rw, p.chunk)
	p.rfn = nil
}

// rangeChunk is Range's task: chunk c of its rw-way split of [0, rn).
func (p *Pool) rangeChunk(c int) {
	lo, hi := BlockBounds(p.rn, p.rw, c)
	p.rfn(lo, hi)
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
