package core

import (
	"math"

	"govpic/internal/grid"
)

// Geometry-canonical state digest: a fingerprint of the physical state
// that is invariant under the rank layout, the partition-plane
// placement and all storage orderings. Each node of the field state
// (stateRows: E, B and the background on interior cells, and Mur's
// section) and each particle hashes to one 64-bit FNV-1a record keyed
// by its *global* coordinates, and the records combine by wrapping
// uint64 addition — commutative and associative, so neither the rank
// that owns a record nor the order it is visited in can change the sum.
// Two states digest equal exactly when they hold the same field bits at
// the same global nodes and the same particle bits in the same global
// cells (derived ghost planes and buffer order excluded). This is
// the CRC canonicalization the load balancer's proofs rest on: an
// online reshape must preserve the digest bit-for-bit, even though
// every per-rank serialization changed.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211

	digestKindState    = 1
	digestKindParticle = 2
)

// fnvU32 folds a uint32 into a running FNV-1a-64 state, byte by byte.
func fnvU32(h uint64, v uint32) uint64 {
	for i := 0; i < 4; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= fnvPrime
	}
	return h
}

// fnvRecord hashes one digest record: its kind, then vs.
func fnvRecord(kind uint64, vs ...uint32) uint64 {
	h := uint64(fnvOffset)
	h ^= kind
	h *= fnvPrime
	for _, v := range vs {
		h = fnvU32(h, v)
	}
	return h
}

// canonicalState sums the digest records of this rank's field state
// (stateRows): one per node of each row, keyed by component and global
// coordinates. A row's node on plane N+1 of an axis is summed only by
// the axis' last rank: elsewhere that plane is the next rank's plane 1,
// so each global node is summed once.
func (rk *Rank) canonicalState() uint64 {
	d := rk.D
	g, dec := d.G, d.Cfg.Layout.Dec
	gx0, gy0, gz0 := d.Cfg.Layout.Origin(d.Rank)
	cx, cy, cz := dec.Coord(d.Rank)
	endX := g.NX // the last node of a row summed here
	if cx == dec.PX-1 {
		endX++
	}
	var sum uint64
	stateRows(d, rk.rho0, nil, func(comp, v int, row []float32) {
		ix, iy, iz := g.Unvoxel(v)
		if (iy > g.NY && cy < dec.PY-1) || (iz > g.NZ && cz < dec.PZ-1) {
			return
		}
		for i, x := range row[:min(len(row), endX-ix+1)] {
			sum += fnvRecord(digestKindState, uint32(comp), uint32(gx0+ix+i-1), uint32(gy0+iy-1), uint32(gz0+iz-1), math.Float32bits(x))
		}
	})
	return sum
}

// interiorRows calls fn with the first voxel v of each interior x-row
// of g (the row is a[v : v+g.NX]), in ascending voxel order.
func interiorRows(g *grid.Grid, fn func(v int)) {
	for iz := 1; iz <= g.NZ; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			fn(g.Voxel(1, iy, iz))
		}
	}
}

// canonicalParticles sums the digest records of this rank's particles,
// keyed by species and global cell.
func (rk *Rank) canonicalParticles() uint64 {
	g := rk.D.G
	gx0, gy0, gz0 := rk.D.Cfg.Layout.Origin(rk.D.Rank)
	var sum uint64
	for si, sp := range rk.Species {
		buf := sp.Buf
		n := buf.N()
		for i := 0; i < n; i++ {
			p := buf.At(i)
			ix, iy, iz := g.Unvoxel(int(p.Voxel))
			sum += fnvRecord(digestKindParticle, uint32(si), uint32(gx0+ix-1), uint32(gy0+iy-1), uint32(gz0+iz-1),
				math.Float32bits(p.Dx), math.Float32bits(p.Dy), math.Float32bits(p.Dz),
				math.Float32bits(p.Ux), math.Float32bits(p.Uy), math.Float32bits(p.Uz), math.Float32bits(p.W))
		}
	}
	return sum
}

// canonicalLocal is one rank's contribution to the global digest.
func (rk *Rank) canonicalLocal() uint64 {
	return rk.canonicalState() + rk.canonicalParticles()
}

// canonicalHeader folds the step counter and simulation time into a
// digest header record (added once, outside the per-rank sums).
func canonicalHeader(step int, time float64) uint64 {
	h := uint64(fnvOffset)
	t := math.Float64bits(time)
	h = fnvU32(h, uint32(step))
	h = fnvU32(h, uint32(t))
	h = fnvU32(h, uint32(t>>32))
	return h
}

// CanonicalDigest returns the geometry-canonical state digest of the
// world — a collective; every rank must call it at the same step and
// receives the same value. The per-rank sums combine by integer
// addition in the communicator (two's-complement addition is uint64
// addition), so neither the layout nor the transport can change it.
func (rs *RankSim) CanonicalDigest() uint64 {
	local := int64(rs.Rank.canonicalLocal())
	total := uint64(rs.comm.AllreduceSumInt(local))
	return total + canonicalHeader(rs.step, rs.time)
}
