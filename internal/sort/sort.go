// Package sort implements the periodic particle sort VPIC performs to
// keep particles in voxel order: a counting sort (O(N+V)), which
// restores the streaming access pattern of the interpolator and
// accumulator reads that cache (and on Roadrunner, SPE local-store DMA)
// efficiency depends on. The out-of-place pass is stable, preserving
// intra-cell ordering. The sort is zero-copy: the scatter pass lands in
// the workspace's AoSoA scratch blocks, which are then swapped into the
// particle buffer (particle.Buffer.Swap) instead of being copied back —
// the two block slices ping-pong between buffer and workspace across
// calls.
//
// There is one routine for every pool, nil or of any worker count: the
// count and scatter passes run per pipeline block (pipe.NumBlocks
// contiguous particle ranges), each block counting its range
// privately, a prefix over (voxel, block) assigning disjoint output
// windows, and the blocks scattering into them. Because block order
// equals input order, the result is the one stable permutation by
// voxel, bit for bit, for any worker count; the workers only share out
// the blocks. The passes are bound once per workspace, so a sort
// allocates nothing at any worker count.
package sort

import (
	"time"

	"govpic/internal/particle"
	"govpic/internal/pipe"
)

// Workspace holds the reusable buffers of the counting sort, and its
// passes with their per-call operands.
type Workspace struct {
	scratch []particle.Block
	pool    *pipe.Pool
	bcounts []int32 // NumBlocks × (nv+1) per-block count/offset matrix
	chunks  [pipe.NumBlocks]int32
	passes  Passes

	// ByVoxel's operands, stored for its pool tasks, which are bound
	// as method values at NewWorkspace.
	buf                               *particle.Buffer
	nv                                int
	count, subtotal, offsets, scatter func(i int)
}

// Passes is the per-pass wall-time breakdown of the sort section —
// the histogram (count), prefix merge, and scatter phases — summed
// over every ByVoxel call of a workspace. With the count,
// merge and scatter passes all parallelized, any residual serial
// fraction shows up here; this is the Amdahl observability the
// post-SIMD perf picture needs (once the push is fast, the sort's
// serial remainder is what bounds the step).
type Passes struct {
	CountSeconds   float64 `json:"count_seconds"`
	MergeSeconds   float64 `json:"merge_seconds"`
	ScatterSeconds float64 `json:"scatter_seconds"`
	Sorts          int64   `json:"sorts"` // ByVoxel calls that actually sorted
}

// Merge accumulates other into p.
func (p *Passes) Merge(other Passes) {
	p.CountSeconds += other.CountSeconds
	p.MergeSeconds += other.MergeSeconds
	p.ScatterSeconds += other.ScatterSeconds
	p.Sorts += other.Sorts
}

// Passes returns the pass breakdown accumulated since the workspace was
// made. Reading does not reset it, so any number of readers agree.
func (w *Workspace) Passes() Passes { return w.passes }

// NewWorkspace sizes a workspace for grids up to nv voxels; ByVoxel
// grows it for a larger grid.
func NewWorkspace(nv int) *Workspace {
	w := &Workspace{bcounts: make([]int32, pipe.NumBlocks*(nv+1))}
	w.count, w.subtotal, w.offsets, w.scatter = w.countBlock, w.chunkTotal, w.chunkOffsets, w.scatterBlock
	return w
}

// SetPool attaches the worker pool that runs the per-block passes. A
// nil pool (the default) runs every block on the caller.
func (w *Workspace) SetPool(p *pipe.Pool) { w.pool = p }

// ByVoxel sorts buf's particles by ascending voxel index. nv must be at
// least 1 + the largest voxel index present. The clock is read once at
// each pass boundary.
func (w *Workspace) ByVoxel(buf *particle.Buffer, nv int) {
	const nb = pipe.NumBlocks
	if buf.N() < 2 {
		return
	}
	if cap(w.scratch) < buf.NBlocks() {
		// Match the buffer's block capacity so append headroom survives
		// swaps.
		w.scratch = make([]particle.Block, 0, cap(buf.Blk))
	}
	w.scratch = w.scratch[:buf.NBlocks()]
	if len(w.bcounts) < nb*(nv+1) {
		w.bcounts = make([]int32, nb*(nv+1))
	}
	w.buf, w.nv = buf, nv
	t0 := time.Now()
	w.pool.Run(nb, w.count)
	t1 := time.Now()

	// Merge pass: an exclusive prefix over the (voxel, block) count
	// matrix in voxel-major order — block b's particles of voxel v land
	// after blocks 0..b−1's, preserving input order (stability). Run in
	// three phases over fixed voxel chunks so the O(nv·nb) sweep is not
	// the sort's serial remainder: chunk subtotals in parallel, a serial
	// exclusive prefix over the nb chunk totals, then each chunk
	// rewrites its counts to running offsets in parallel. Chunk bounds
	// depend only on nv and int32 addition is exact and associative, so
	// the offsets are the same at any worker count.
	w.pool.Run(nb, w.subtotal)
	var sum int32
	for k, t := range w.chunks {
		w.chunks[k] = sum
		sum += t
	}
	w.pool.Run(nb, w.offsets)
	t2 := time.Now()

	// Scatter pass: output windows are disjoint by construction. Two
	// workers may write different lanes of the same destination block;
	// lanes are distinct memory words, so the writes do not race.
	w.pool.Run(nb, w.scatter)
	t3 := time.Now()
	w.passes.CountSeconds += t1.Sub(t0).Seconds()
	w.passes.MergeSeconds += t2.Sub(t1).Seconds()
	w.passes.ScatterSeconds += t3.Sub(t2).Seconds()
	w.passes.Sorts++

	// Zero-copy completion: the buffer adopts the sorted scratch blocks
	// and the old storage becomes the next call's scratch. Each slice has
	// exactly one owner at any time, so a workspace shared across several
	// buffers (species) never aliases their storage.
	w.scratch = buf.Swap(w.scratch)
}

// row returns block b's row of the count matrix.
func (w *Workspace) row(b int) []int32 {
	stride := w.nv + 1
	return w.bcounts[b*stride : (b+1)*stride]
}

// countBlock histograms block b's contiguous particle range, walking
// the Voxel lane array of each storage block it spans.
func (w *Workspace) countBlock(b int) {
	c := w.row(b)
	clear(c)
	blk := w.buf.Blk
	lo, hi := pipe.BlockBounds(w.buf.N(), pipe.NumBlocks, b)
	for i := lo; i < hi; {
		base := i &^ particle.LaneMask
		end := min(hi-base, particle.Lanes)
		for _, v := range blk[i>>particle.LaneShift].Voxel[i-base : end] {
			c[v]++
		}
		i = base + end
	}
}

// chunkTotal sums voxel chunk k's counts over every block, one
// contiguous row segment per block; int32 addition is exact, so the
// order does not change the total.
func (w *Workspace) chunkTotal(k int) {
	vlo, vhi := pipe.BlockBounds(w.nv, pipe.NumBlocks, k)
	var t int32
	for b := 0; b < pipe.NumBlocks; b++ {
		for _, c := range w.row(b)[vlo:vhi] {
			t += c
		}
	}
	w.chunks[k] = t
}

// chunkOffsets rewrites voxel chunk k's counts to running offsets,
// starting at the chunk's exclusive prefix.
func (w *Workspace) chunkOffsets(k int) {
	stride, bc := w.nv+1, w.bcounts
	vlo, vhi := pipe.BlockBounds(w.nv, pipe.NumBlocks, k)
	run := w.chunks[k]
	for v := vlo; v < vhi; v++ {
		for b := 0; b < pipe.NumBlocks; b++ {
			idx := b*stride + v
			c := bc[idx]
			bc[idx] = run
			run += c
		}
	}
}

// scatterBlock places block b's particles at their offsets.
func (w *Workspace) scatterBlock(b int) {
	c := w.row(b)
	buf, out := w.buf, w.scratch
	lo, hi := pipe.BlockBounds(buf.N(), pipe.NumBlocks, b)
	for i := lo; i < hi; i++ {
		v := buf.Voxel(i)
		place(buf, out, i, c[v])
		c[v]++
	}
}

// BytesPerParticleSorted is the data-motion model of one ByVoxel call,
// in bytes per particle (the particle record is 32 B across its AoSoA
// lanes): the count pass reads each particle's voxel lane within a
// streamed block and the scatter pass reads the particle once and
// writes it once (into a scattered lane of the destination block).
const BytesPerParticleSorted = 3 * particle.ParticleBytes

// TrafficBytes returns the estimated data motion of sorting n particles
// under the zero-copy scheme.
func TrafficBytes(n int) int64 { return int64(n) * BytesPerParticleSorted }

// place scatters particle i of src into gathered slot j of the out
// blocks (lane j&LaneMask of block j>>LaneShift).
func place(src *particle.Buffer, out []particle.Block, i int, j int32) {
	sb := &src.Blk[i>>particle.LaneShift]
	sl := i & particle.LaneMask
	db := &out[j>>particle.LaneShift]
	dl := j & particle.LaneMask
	db.Dx[dl], db.Dy[dl], db.Dz[dl] = sb.Dx[sl], sb.Dy[sl], sb.Dz[sl]
	db.Voxel[dl] = sb.Voxel[sl]
	db.Ux[dl], db.Uy[dl], db.Uz[dl] = sb.Ux[sl], sb.Uy[sl], sb.Uz[sl]
	db.W[dl] = sb.W[sl]
}

// IsSorted reports whether the buffer's particles are in ascending
// voxel order.
func IsSorted(b *particle.Buffer) bool {
	for i := 1; i < b.N(); i++ {
		if b.Voxel(i) < b.Voxel(i-1) {
			return false
		}
	}
	return true
}
