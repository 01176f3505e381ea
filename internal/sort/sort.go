// Package sort implements the periodic particle sort VPIC performs to
// keep particles in voxel order: a single-pass counting sort (O(N+V)),
// which restores the streaming access pattern of the interpolator and
// accumulator reads that cache (and on Roadrunner, SPE local-store DMA)
// efficiency depends on. The out-of-place pass is stable, preserving
// intra-cell ordering. The sort is zero-copy: the scatter pass lands in
// the workspace's AoSoA scratch blocks, which are then swapped into the
// particle buffer (particle.Buffer.Swap) instead of being copied back —
// the two block slices ping-pong between buffer and workspace across
// calls.
//
// With a worker pool attached (SetPool), the count and scatter passes
// run per pipeline block: each block counts its contiguous particle
// range privately, a serial prefix over (voxel, block) assigns disjoint
// output windows, and the blocks scatter concurrently. Because block
// order equals input order, the result is the same stable permutation
// the serial pass produces, bit for bit, for any worker count.
package sort

import (
	"time"

	"govpic/internal/particle"
	"govpic/internal/pipe"
)

// parallelMin is the buffer size below which the blocked sort is not
// worth the extra prefix pass and the serial path is used instead. The
// two paths produce identical output, so the threshold only affects
// speed.
const parallelMin = 4096

// Workspace holds the reusable buffers of the counting sort.
type Workspace struct {
	counts  []int32
	scratch []particle.Block
	pool    *pipe.Pool
	bcounts []int32 // NumBlocks × (nv+1) per-block count/offset matrix
	chunks  [pipe.NumBlocks + 1]int32
	passes  Passes
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

// NewWorkspace sizes a workspace for grids up to nv voxels.
func NewWorkspace(nv int) *Workspace {
	return &Workspace{counts: make([]int32, nv+1)}
}

// SetPool attaches a worker pool used to parallelize the count and
// scatter passes. A nil pool (the default) keeps the sort serial.
func (w *Workspace) SetPool(p *pipe.Pool) { w.pool = p }

// ByVoxel sorts buf's particles by ascending voxel index. nv must be at
// least 1 + the largest voxel index present.
func (w *Workspace) ByVoxel(buf *particle.Buffer, nv int) {
	n := buf.N()
	if n < 2 {
		return
	}
	nb := buf.NBlocks()
	if cap(w.scratch) < nb {
		// Match the buffer's block capacity so append headroom survives
		// swaps.
		w.scratch = make([]particle.Block, nb, cap(buf.Blk))
	}
	out := w.scratch[:nb]
	if w.pool.Workers() > 1 && n >= parallelMin {
		w.sortBlocked(buf, out, nv)
	} else {
		w.sortSerial(buf, out, nv)
	}
	// Zero-copy completion: the buffer adopts the sorted scratch blocks
	// and the old storage becomes the next call's scratch. Each slice has
	// exactly one owner at any time, so a workspace shared across several
	// buffers (species) never aliases their storage.
	w.scratch = buf.Swap(out)
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

// sortSerial is the classic single-threaded counting sort into out.
func (w *Workspace) sortSerial(buf *particle.Buffer, out []particle.Block, nv int) {
	if len(w.counts) < nv+1 {
		w.counts = make([]int32, nv+1)
	}
	counts := w.counts[:nv+1]
	start := time.Now()
	for i := range counts {
		counts[i] = 0
	}
	n := buf.N()
	for bi := range buf.Blk {
		blk := &buf.Blk[bi]
		for l := 0; l < buf.LaneCount(bi); l++ {
			counts[blk.Voxel[l]]++
		}
	}
	w.passes.CountSeconds += time.Since(start).Seconds()

	start = time.Now()
	var sum int32
	for v := 0; v < nv; v++ {
		c := counts[v]
		counts[v] = sum
		sum += c
	}
	w.passes.MergeSeconds += time.Since(start).Seconds()

	start = time.Now()
	for i := 0; i < n; i++ {
		v := buf.Voxel(i)
		place(buf, out, i, counts[v])
		counts[v]++
	}
	w.passes.ScatterSeconds += time.Since(start).Seconds()
	w.passes.Sorts++
}

// sortBlocked runs the count and scatter passes per pipeline block.
func (w *Workspace) sortBlocked(buf *particle.Buffer, out []particle.Block, nv int) {
	const nb = pipe.NumBlocks
	n := buf.N()
	stride := nv + 1
	if len(w.bcounts) < nb*stride {
		w.bcounts = make([]int32, nb*stride)
	}
	bc := w.bcounts[: nb*stride : nb*stride]

	// Count pass: each block histograms its contiguous particle range.
	start := time.Now()
	w.pool.Run(nb, func(b int) {
		c := bc[b*stride : (b+1)*stride]
		for i := range c {
			c[i] = 0
		}
		lo, hi := pipe.BlockBounds(n, nb, b)
		for i := lo; i < hi; i++ {
			c[buf.Voxel(i)]++
		}
	})
	w.passes.CountSeconds += time.Since(start).Seconds()

	// Merge pass: an exclusive prefix over the (voxel, block) count
	// matrix in voxel-major order — block b's particles of voxel v land
	// after blocks 0..b−1's, preserving input order (stability). Run in
	// three phases over fixed voxel chunks so the O(nv·nb) sweep is not
	// the sort's serial remainder: chunk subtotals in parallel, a serial
	// exclusive prefix over the nb chunk totals, then each chunk
	// rewrites its counts to running offsets in parallel. Chunk bounds
	// depend only on nv and int32 addition is exact and associative, so
	// the offsets match the serial sweep bit for bit at any worker count.
	start = time.Now()
	w.pool.Run(nb, func(k int) {
		vlo, vhi := pipe.BlockBounds(nv, nb, k)
		var t int32
		for v := vlo; v < vhi; v++ {
			for b := 0; b < nb; b++ {
				t += bc[b*stride+v]
			}
		}
		w.chunks[k] = t
	})
	var sum int32
	for k := 0; k < nb; k++ {
		t := w.chunks[k]
		w.chunks[k] = sum
		sum += t
	}
	w.pool.Run(nb, func(k int) {
		vlo, vhi := pipe.BlockBounds(nv, nb, k)
		run := w.chunks[k]
		for v := vlo; v < vhi; v++ {
			for b := 0; b < nb; b++ {
				idx := b*stride + v
				c := bc[idx]
				bc[idx] = run
				run += c
			}
		}
	})
	w.passes.MergeSeconds += time.Since(start).Seconds()

	// Scatter pass: output windows are disjoint by construction. Two
	// workers may write different lanes of the same destination block;
	// lanes are distinct memory words, so the writes do not race.
	start = time.Now()
	w.pool.Run(nb, func(b int) {
		c := bc[b*stride : (b+1)*stride]
		lo, hi := pipe.BlockBounds(n, nb, b)
		for i := lo; i < hi; i++ {
			v := buf.Voxel(i)
			place(buf, out, i, c[v])
			c[v]++
		}
	})
	w.passes.ScatterSeconds += time.Since(start).Seconds()
	w.passes.Sorts++
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
