package core

import (
	"math"

	"govpic/internal/grid"
)

// Geometry-canonical state digest: a fingerprint of the physical state
// that is invariant under the rank layout, the partition-plane
// placement and all storage orderings. Each interior cell and each
// particle hashes to one 64-bit FNV-1a record keyed by its *global*
// coordinates, and the records combine by wrapping uint64 addition —
// commutative and associative, so neither the rank that owns a record
// nor the order it is visited in can change the sum. Two states digest
// equal exactly when they hold the same field bits at the same global
// cells and the same particle bits in the same global cells (ghost
// planes and buffer order excluded — those are derived data). This is
// the CRC canonicalization the load balancer's proofs rest on: an
// online reshape must preserve the digest bit-for-bit, even though
// every per-rank serialization changed.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211

	digestKindCell     = 1
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

// canonicalCells sums the digest records of this rank's interior cells
// (E and B plus the neutralizing background when present; J is
// per-step scratch, re-deposited before it is read).
func (rk *Rank) canonicalCells() uint64 {
	g := rk.D.G
	f := rk.D.F
	gx0, gy0, gz0 := rk.D.Cfg.Layout.Origin(rk.D.Rank)
	arrs := [][]float32{f.Ex, f.Ey, f.Ez, f.Bx, f.By, f.Bz}
	var sum uint64
	interiorRows(g, func(v0, iy, iz int) {
		for ix := 1; ix <= g.NX; ix++ {
			v := v0 + ix - 1
			h := uint64(fnvOffset)
			h ^= digestKindCell
			h *= fnvPrime
			h = fnvU32(h, uint32(gx0+ix-1))
			h = fnvU32(h, uint32(gy0+iy-1))
			h = fnvU32(h, uint32(gz0+iz-1))
			for _, a := range arrs {
				h = fnvU32(h, math.Float32bits(a[v]))
			}
			if rk.rho0 != nil {
				h = fnvU32(h, 1)
				h = fnvU32(h, math.Float32bits(rk.rho0[v]))
			}
			sum += h
		}
	})
	return sum
}

// interiorRows calls fn with each interior x-row of g — v, its first
// voxel (the row is a[v : v+g.NX]), and its y and z — in ascending voxel
// order: the one walk the checkpoint payload and the digest share.
func interiorRows(g *grid.Grid, fn func(v, iy, iz int)) {
	for iz := 1; iz <= g.NZ; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			fn(g.Voxel(1, iy, iz), iy, iz)
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
			h := uint64(fnvOffset)
			h ^= digestKindParticle
			h *= fnvPrime
			h = fnvU32(h, uint32(si))
			h = fnvU32(h, uint32(gx0+ix-1))
			h = fnvU32(h, uint32(gy0+iy-1))
			h = fnvU32(h, uint32(gz0+iz-1))
			h = fnvU32(h, math.Float32bits(p.Dx))
			h = fnvU32(h, math.Float32bits(p.Dy))
			h = fnvU32(h, math.Float32bits(p.Dz))
			h = fnvU32(h, math.Float32bits(p.Ux))
			h = fnvU32(h, math.Float32bits(p.Uy))
			h = fnvU32(h, math.Float32bits(p.Uz))
			h = fnvU32(h, math.Float32bits(p.W))
			sum += h
		}
	}
	return sum
}

// canonicalLocal is one rank's contribution to the global digest.
func (rk *Rank) canonicalLocal() uint64 {
	return rk.canonicalCells() + rk.canonicalParticles()
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
