// Package accum implements VPIC's per-voxel current accumulator: each
// cell owns 12 single-precision slots — the portions of Jx on the four
// x-edges bounding the cell, Jy on the four y-edges and Jz on the four
// z-edges. The pusher scatters charge-conserving (Villasenor–Buneman)
// current into the accumulator of the cell it is traversing; Unload then
// gathers the (up to four) cell contributions of every Yee edge into the
// field solver's J arrays.
//
// Splitting deposition (particle → accumulator) from reduction
// (accumulator → field) is the design that let VPIC's SPE kernels stream
// particles without scattering to remote field memory; here it also
// keeps the hot loop free of cross-cell indexing.
//
// The accumulator tracks the voxel window [Lo, Hi) its deposits touched,
// and Reduce visits only the union of the pipeline accumulators'
// windows, summing and zeroing them in one pass (so the step needs no
// separate clear). The windows rarely make that pass small: a 4-cell-
// thick deck wraps in y and z, which puts a far voxel into nearly every
// block within a few steps of a sort, so the eight windows of a thermal
// deck sum to 4.5–4.9 grids and their union is 0.61 of one (on the
// lpi.srs slab they sum to 0.11 grids). The pass reads and zeroes every
// accumulator over that union — about 5 grids each way per step on a
// thermal deck, the price of the 8 private copies that keep the push
// free of write conflicts. The invariant every fast path relies on is
// that cells outside the window are exactly zero; all writes must
// therefore go through Touch (or the push kernel, which touches on
// every deposit).
package accum

import (
	"govpic/internal/field"
	"govpic/internal/grid"
	"govpic/internal/pipe"
)

// Cell holds one voxel's 12 accumulation slots. Slot order within each
// component follows VPIC: for JX the edges at transverse corners
// (lo,lo), (hi,lo), (lo,hi), (hi,hi) where the first axis is y and the
// second z; for JY the axes are (z,x); for JZ (x,y).
type Cell struct {
	JX [4]float32
	JY [4]float32
	JZ [4]float32
}

// CellBytes is the memory footprint of one accumulator cell (12 × 4 B),
// the unit of the package's data-motion accounting.
const CellBytes = 48

// Array is the accumulator for all voxels of a grid, plus the touched
// voxel window. Invariant: every cell outside [lo, hi) is zero.
type Array struct {
	G *grid.Grid
	A []Cell

	lo, hi int // touched window; lo >= hi means empty

	// The pooled passes whose destination is this array, bound once so
	// they allocate nothing per call.
	tasks *tasks
}

// tasks holds Reduce's and UnloadPar's per-call operands and their
// range sweeps, bound as method values when first used.
type tasks struct {
	a          *Array
	srcs       []*Array
	lo         int
	f          *field.Fields
	cx, cy, cz float32
	reduce     func(lo, hi int)
	jx, jy, jz func(lo, hi int)
}

// task returns a's pass operands, binding them on first use.
func (a *Array) task() *tasks {
	if a.tasks == nil {
		t := &tasks{a: a}
		t.reduce, t.jx, t.jy, t.jz = t.reduceRange, t.unloadJx, t.unloadJy, t.unloadJz
		a.tasks = t
	}
	return a.tasks
}

// New allocates a cleared accumulator array for g with an empty window.
func New(g *grid.Grid) *Array {
	nv := g.NV()
	return &Array{G: g, A: make([]Cell, nv), lo: nv, hi: 0}
}

// Touch grows the touched window to include voxel v. Callers depositing
// into A directly must Touch every voxel they write (the push kernel
// does this once per sorted run, not per particle).
func (a *Array) Touch(v int) {
	if v < a.lo {
		a.lo = v
	}
	if v+1 > a.hi {
		a.hi = v + 1
	}
}

// Window returns the touched voxel window [lo, hi); lo >= hi means no
// deposit has landed since the array was last cleared or reduced.
func (a *Array) Window() (lo, hi int) { return a.lo, a.hi }

// resetWindow marks the window empty.
func (a *Array) resetWindow() { a.lo, a.hi = len(a.A), 0 }

// Clear zeroes the touched window and resets it; called once per step
// before deposition. Cells outside the window are already zero by the
// package invariant, so this moves O(window) rather than O(grid) bytes.
func (a *Array) Clear() {
	if a.hi > a.lo {
		clear(a.A[a.lo:a.hi])
	}
	a.resetWindow()
}

// ClearFull unconditionally zeroes every cell and resets the window —
// the escape hatch for callers that wrote to A without Touch (tests,
// ad-hoc diagnostics).
func (a *Array) ClearFull() {
	clear(a.A)
	a.resetWindow()
}

// ClearAll zeroes every array in as, one pool task per array. The step
// does not need it: Reduce leaves its sources cleared.
func ClearAll(p *pipe.Pool, as []*Array) {
	p.Run(len(as), func(i int) { as[i].Clear() })
}

// Reduce overwrites dst's slots with the slot-wise sum of srcs — the
// pipeline accumulators — taken in slice order, zeroes every src and
// resets its window, and returns the size of the union window it
// reduced. Each slot's sum is the left-associated chain
// ((s0+s1)+…)+s7 with the running sum as the first operand of every
// addition, and the pool only partitions the voxel range, so the result
// is bit-identical for any worker count and for the vector and Go
// kernels alike. Leaving the sources zero makes the reduce also the
// clear: the next step deposits into them as they are.
//
// Only the union of the srcs' touched windows is visited: a src whose
// window excludes a voxel holds exact zeros there, which the pass reads
// and rewrites like any other value. dst's stale window is cleared
// first, so cells outside the union end the call exactly zero — the
// same value the full-grid reduction produced.
func Reduce(p *pipe.Pool, dst *Array, srcs []*Array) int {
	lo, hi := len(dst.A), 0
	for _, s := range srcs {
		if s.lo < lo {
			lo = s.lo
		}
		if s.hi > hi {
			hi = s.hi
		}
	}
	dst.Clear()
	if hi <= lo {
		return 0
	}
	t := dst.task()
	t.srcs, t.lo = srcs, lo
	p.Range(hi-lo, t.reduce)
	t.srcs = nil
	for _, s := range srcs {
		s.resetWindow()
	}
	dst.lo, dst.hi = lo, hi
	return hi - lo
}

// reduceRange is Reduce's pass over cells [lo, hi) of its window.
func (t *tasks) reduceRange(lo, hi int) {
	lo, hi = t.lo+lo, t.lo+hi
	var buf [pipe.NumBlocks][]Cell
	rows := buf[:0]
	for _, s := range t.srcs {
		rows = append(rows, s.A[lo:hi])
	}
	sumClear(t.a.A[lo:hi], rows)
}

// sumClearGo writes into each dst cell the slot-wise sum of the same
// cell of every srcs row, left-associated in slice order with the
// running sum as the first operand, and zeroes the source cells; every
// row must be at least len(dst) long. It is the portable form of the
// vector sumClear.
func sumClearGo(dst []Cell, srcs [][]Cell) {
	for i := range dst {
		c := srcs[0][i]
		srcs[0][i] = Cell{}
		for _, s := range srcs[1:] {
			o := &s[i]
			for j := 0; j < 4; j++ {
				c.JX[j] += o.JX[j]
				c.JY[j] += o.JY[j]
				c.JZ[j] += o.JZ[j]
			}
			*o = Cell{}
		}
		dst[i] = c
	}
}

// UnloadPar scatters the accumulated currents into the field J arrays
// (adding to whatever is there, so antenna currents survive) with the
// normalization that converts accumulated q·Δoffset weights into edge
// current densities:
//
//	Jx(edge) = Σ_cells jx_slot / (4·dt·dy·dz)   (and cyclic).
//
// dt is the time step the displacements were accumulated over. The
// z-plane sweeps of each edge family are split over the worker pool p
// (nil runs them inline). Every edge value is gathered independently
// from its (up to four) adjacent cells, so partitioning the z range
// changes nothing numerically.
func (a *Array) UnloadPar(p *pipe.Pool, f *field.Fields, dt float64) {
	g := a.G
	t := a.task()
	t.f = f
	t.cx = float32(1 / (4 * dt * g.DY * g.DZ))
	t.cy = float32(1 / (4 * dt * g.DZ * g.DX))
	t.cz = float32(1 / (4 * dt * g.DX * g.DY))
	p.Range(g.NZ+1, t.jx)
	p.Range(g.NZ+1, t.jy)
	p.Range(g.NZ, t.jz)
	t.f = nil
}

// unloadJx gathers the Jx edges of z planes (lo, hi]: i ∈ [1,NX],
// j,k ∈ [1,N+1], each from the four cells sharing the edge,
// (i, j−1..j, k−1..k); ghost cells hold zero.
func (t *tasks) unloadJx(lo, hi int) {
	g, A, jx, cx := t.a.G, t.a.A, t.f.Jx, t.cx
	sx, sy, _ := g.Strides()
	sxy := sx * sy
	for iz := lo + 1; iz <= hi; iz++ {
		for iy := 1; iy <= g.NY+1; iy++ {
			v := g.Voxel(1, iy, iz)
			for ix := 1; ix <= g.NX; ix++ {
				jx[v] += cx * (A[v].JX[0] + A[v-sx].JX[1] + A[v-sxy].JX[2] + A[v-sx-sxy].JX[3])
				v++
			}
		}
	}
}

// unloadJy gathers the Jy edges: j ∈ [1,NY], k,i ∈ [1,N+1]; cells
// (k−1..k, i−1..i).
func (t *tasks) unloadJy(lo, hi int) {
	g, A, jy, cy := t.a.G, t.a.A, t.f.Jy, t.cy
	sx, sy, _ := g.Strides()
	sxy := sx * sy
	for iz := lo + 1; iz <= hi; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			v := g.Voxel(1, iy, iz)
			for ix := 1; ix <= g.NX+1; ix++ {
				jy[v] += cy * (A[v].JY[0] + A[v-sxy].JY[1] + A[v-1].JY[2] + A[v-sxy-1].JY[3])
				v++
			}
		}
	}
}

// unloadJz gathers the Jz edges: k ∈ [1,NZ], i,j ∈ [1,N+1]; cells
// (i−1..i, j−1..j).
func (t *tasks) unloadJz(lo, hi int) {
	g, A, jz, cz := t.a.G, t.a.A, t.f.Jz, t.cz
	sx, _, _ := g.Strides()
	for iz := lo + 1; iz <= hi; iz++ {
		for iy := 1; iy <= g.NY+1; iy++ {
			v := g.Voxel(1, iy, iz)
			for ix := 1; ix <= g.NX+1; ix++ {
				jz[v] += cz * (A[v].JZ[0] + A[v-1].JZ[1] + A[v-sx].JZ[2] + A[v-1-sx].JZ[3])
				v++
			}
		}
	}
}
