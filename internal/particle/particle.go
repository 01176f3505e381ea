// Package particle defines the particle storage used by the kernels.
//
// The representation mirrors VPIC's 32-byte particle: positions are
// stored as the index of the voxel (cell) containing the particle plus
// offsets (Dx,Dy,Dz) ∈ [-1,1] within the cell (−1 at the cell's low
// face, +1 at the high face), and momenta as u = γv/c in units of c.
// This cell-local representation is what makes the single-precision
// inner loop accurate: offsets carry full float32 resolution regardless
// of where in a large domain the particle sits, and the deposition/
// interpolation kernels never form a global coordinate.
//
// The storage layout is AoSoA ("array of structures of arrays"): the
// buffer is a slice of 8-wide Blocks, each holding one small contiguous
// array per particle component. Within a block every component is a
// fixed-size lane array, so the push kernel's lane loops are straight-
// line code with compile-time bounds (bounds-check eliminated) and a
// hardware-friendly access pattern: reading one component of 8
// consecutive particles touches one 32-byte sliver instead of gathering
// a 4-byte field from 8 interleaved 32-byte records. A Block is 256 B —
// four cache lines — and holds exactly the paper's SPE quadword-packing
// unit scaled to 8 lanes.
package particle

import "math"

// Lane geometry of the AoSoA layout. Lanes is the block width: the
// number of particles whose components are interleaved into one Block.
const (
	Lanes     = 8
	LaneShift = 3 // log2(Lanes)
	LaneMask  = Lanes - 1
)

// Block is the AoSoA storage unit: 8 particles stored component-wise.
// Lane l of the arrays holds particle fields exactly as the historical
// 32-byte AoS record did; lanes at or beyond the owning buffer's count
// are unspecified garbage and must not be read.
type Block struct {
	Dx, Dy, Dz [Lanes]float32 // cell-local offsets in [-1, 1]
	Voxel      [Lanes]int32   // flat index of the containing cell
	Ux, Uy, Uz [Lanes]float32 // normalized momentum γv/c
	W          [Lanes]float32 // statistical weight
}

// BlockBytes is the memory footprint of one block (8 lanes × 32 B per
// particle) — the granularity at which the AoSoA layout actually moves
// particle data: a sweep over n particles streams ceil(n/Lanes) blocks.
const BlockBytes = 32 * Lanes

// ParticleBytes is the per-lane footprint, identical to the historical
// AoS record size.
const ParticleBytes = 32

// Particle is one macro-particle in gathered (AoS) form — the exchange
// currency of everything outside the hot loops: loaders, diagnostics,
// checkpoints and the 44-byte migration wire format.
type Particle struct {
	Dx, Dy, Dz float32 // cell-local offsets in [-1, 1]
	Voxel      int32   // flat index of the containing cell
	Ux, Uy, Uz float32 // normalized momentum γv/c
	W          float32 // statistical weight (physical particles represented)
}

// Mover records a particle whose step crosses at least one cell face and
// therefore must be finished by the boundary-aware move machinery:
// DispX/Y/Z hold the *remaining* displacement in cell-offset units.
type Mover struct {
	DispX, DispY, DispZ float32
	Idx                 int32 // index into the owning particle buffer
}

// Buffer is a growable AoSoA particle array with O(1) removal. Blk is
// exported for the kernels' lane loops; every other consumer should go
// through the indexed accessors. Invariants: len(Blk) == NBlocks(), and
// lanes ≥ N()%Lanes of the final block hold garbage.
type Buffer struct {
	Blk []Block
	n   int
}

// blocksFor returns the block count covering n particles.
func blocksFor(n int) int { return (n + LaneMask) >> LaneShift }

// NewBuffer returns a Buffer with capacity for the given particle count
// pre-allocated.
func NewBuffer(capacity int) *Buffer {
	return &Buffer{Blk: make([]Block, 0, blocksFor(capacity))}
}

// N returns the number of stored particles.
func (b *Buffer) N() int { return b.n }

// NBlocks returns the number of (fully or partially) occupied blocks.
func (b *Buffer) NBlocks() int { return len(b.Blk) }

// LaneCount returns the number of valid lanes in block bi: Lanes for
// every block but possibly the last.
func (b *Buffer) LaneCount(bi int) int {
	if n := b.n - bi<<LaneShift; n < Lanes {
		return n
	}
	return Lanes
}

// Cap returns the particle capacity of the underlying block storage.
func (b *Buffer) Cap() int { return cap(b.Blk) << LaneShift }

// At gathers particle i into AoS form.
func (b *Buffer) At(i int) Particle {
	blk := &b.Blk[i>>LaneShift]
	l := i & LaneMask
	return Particle{
		Dx: blk.Dx[l], Dy: blk.Dy[l], Dz: blk.Dz[l],
		Voxel: blk.Voxel[l],
		Ux:    blk.Ux[l], Uy: blk.Uy[l], Uz: blk.Uz[l],
		W: blk.W[l],
	}
}

// Set scatters p into slot i.
func (b *Buffer) Set(i int, p Particle) {
	blk := &b.Blk[i>>LaneShift]
	l := i & LaneMask
	blk.Dx[l], blk.Dy[l], blk.Dz[l] = p.Dx, p.Dy, p.Dz
	blk.Voxel[l] = p.Voxel
	blk.Ux[l], blk.Uy[l], blk.Uz[l] = p.Ux, p.Uy, p.Uz
	blk.W[l] = p.W
}

// Voxel returns particle i's voxel without gathering the full record.
func (b *Buffer) Voxel(i int) int32 { return b.Blk[i>>LaneShift].Voxel[i&LaneMask] }

// Append adds a particle.
func (b *Buffer) Append(p Particle) {
	if b.n == len(b.Blk)<<LaneShift {
		b.Blk = append(b.Blk, Block{})
	}
	b.Set(b.n, p)
	b.n++
}

// Resize sets the particle count to n. Storage that is short grows to
// exactly n particles' blocks, keeping the first N(); slots from the
// old count on hold garbage until Set. Shrinking keeps the capacity
// (Resize(0) empties the buffer). Bulk writers size a buffer once with
// it and then fill it by Set.
func (b *Buffer) Resize(n int) {
	nb := blocksFor(n)
	if cap(b.Blk) < nb {
		blk := make([]Block, nb)
		copy(blk, b.Blk)
		b.Blk = blk
	}
	b.Blk = b.Blk[:nb]
	b.n = n
}

// RemoveSwap removes particle i by swapping the last particle into its
// slot; order is not preserved (the periodic sort restores locality).
func (b *Buffer) RemoveSwap(i int) {
	last := b.n - 1
	if i != last {
		b.Set(i, b.At(last))
	}
	b.n = last
	b.Blk = b.Blk[:blocksFor(last)]
}

// Swap replaces the buffer's block storage with blk — which must hold
// the same particle count, typically the sort's scratch holding the
// sorted permutation — and returns the previous storage for reuse. This
// is the zero-copy half of the double-buffered sort: ownership of the
// two block slices ping-pongs between buffer and sort workspace, so no
// copy-back pass ever runs.
func (b *Buffer) Swap(blk []Block) []Block {
	old := b.Blk
	b.Blk = blk
	return old
}

// All gathers every particle into a fresh AoS slice — a convenience for
// tests and cold diagnostics, not a hot path.
func (b *Buffer) All() []Particle {
	out := make([]Particle, b.n)
	for i := range out {
		out[i] = b.At(i)
	}
	return out
}

// CopyFrom replaces b's contents with a deep copy of src.
func (b *Buffer) CopyFrom(src *Buffer) {
	if cap(b.Blk) < len(src.Blk) {
		b.Blk = make([]Block, len(src.Blk))
	}
	b.Blk = b.Blk[:len(src.Blk)]
	copy(b.Blk, src.Blk)
	b.n = src.n
}

// KineticEnergy returns Σ w·m·(γ−1) in code units (me·c² per unit
// weight) accumulated in double precision; m is the species mass in
// electron masses. The accumulation order is particle index order, so
// the sum is bit-identical to the historical AoS sweep.
func (b *Buffer) KineticEnergy(mass float64) float64 {
	var s float64
	for bi := range b.Blk {
		blk := &b.Blk[bi]
		for l := 0; l < b.LaneCount(bi); l++ {
			ux, uy, uz := float64(blk.Ux[l]), float64(blk.Uy[l]), float64(blk.Uz[l])
			u2 := ux*ux + uy*uy + uz*uz
			// γ−1 computed as u²/(γ+1) to avoid cancellation for cold particles.
			g := math.Sqrt(1 + u2)
			s += float64(blk.W[l]) * (u2 / (g + 1))
		}
	}
	return mass * s
}
