package core

import (
	"fmt"
	"slices"

	"govpic/internal/accum"
	"govpic/internal/balance"
	"govpic/internal/domain"
	"govpic/internal/grid"
	"govpic/internal/interp"
	"govpic/internal/push"
)

// Online rebalancing: between steps, every rank runs the same collective
// imbalance check — one small float64 allreduce of the global per-x-plane
// particle histogram — and, when the particle-count imbalance exceeds
// the threshold, jumps the x-cuts straight to the bisection layout. Each
// rank's new x-extent is assembled from slabs of the old owners' extents
// (the "rebalance" traffic class); every rank then rebuilds its tile on
// the new layout and the world collectively re-primes ghost state.
// Because the trigger and the target cuts are pure functions of
// allreduced counts, every rank takes the same branch with no extra
// coordination, and because a reshape moves the checkpoint's rows
// (stateRows), Mur's included, the geometry-canonical digest is
// preserved bit-for-bit across it.

// maybeReshapeX runs one online balance check. Collective: every rank
// of the world must call it at the same step. Returns whether the cuts
// moved (the same answer on every rank).
func (rk *Rank) maybeReshapeX(cfg *Config) bool {
	lay := rk.D.Cfg.Layout
	if lay.Dec.PX < 2 {
		return false
	}
	counts := make([]float64, lay.Dec.GNX)
	rk.addPlaneCountsX(counts)
	tot := rk.D.Comm.AllreduceSumF64s(counts)
	if balance.Imbalance(tot, lay.CX) < cfg.Balance.Threshold {
		return false
	}
	target := balance.BisectCuts(tot, lay.Dec.PX)
	if slices.Equal(target, lay.CX) {
		return false
	}
	rk.reshapeX(cfg, target)
	return true
}

// addPlaneCountsX accumulates this rank's particles into the global
// per-x-plane histogram.
func (rk *Rank) addPlaneCountsX(counts []float64) {
	gx0, _, _ := rk.D.Cfg.Layout.Origin(rk.D.Rank)
	g := rk.D.G
	for _, sp := range rk.Species {
		buf := sp.Buf
		n := buf.N()
		for i := 0; i < n; i++ {
			ix, _, _ := g.Unvoxel(int(buf.Voxel(i)))
			counts[gx0+ix-1]++
		}
	}
}

// reshapeX rebuilds this rank's tile under the new x-cuts. Only x-cuts
// move and the outer cuts are fixed, so for every ordered pair (old
// owner p, new owner q) the overlap of p's old extent with q's new
// extent is a single slab of global planes [a, b): p keeps it when
// p == q and otherwise sends it — the slab's part of each state row
// (slabRows), then one particle batch per species. Every rank sends all
// its slabs before receiving any, and receives from peers in rank
// order, so the in-order links need no sequence scheme. Every rank must
// call reshapeX with the same newCX concurrently — the ghost re-prime
// at the end is collective even for ranks whose extent did not change.
func (rk *Rank) reshapeX(cfg *Config, newCX []int) {
	dOld := rk.D
	gOld := dOld.G
	layOld := dOld.Cfg.Layout
	dec := layOld.Dec
	cx, cy, cz := dec.Coord(dOld.Rank)
	oldX0, oldX1 := layOld.CX[cx], layOld.CX[cx+1]
	newX0, newX1 := newCX[cx], newCX[cx+1]

	// 1. Build the new domain.
	newLay, err := grid.NewLayout(dec, newCX, layOld.CY, layOld.CZ)
	if err != nil {
		panic(fmt.Sprintf("core: reshape produced invalid layout: %v", err))
	}
	dcfg := dOld.Cfg
	dcfg.Layout = newLay
	dNew, err := domain.New(dcfg, dOld.Comm)
	if err != nil {
		panic(fmt.Sprintf("core: reshape domain rebuild failed: %v", err))
	}
	gNew := dNew.G
	var rho0New []float32
	if rk.rho0 != nil {
		rho0New = make([]float32, gNew.NV())
	}

	// 2. Bin the particles by new x-slab: this rank's own stay, remapped
	// onto the new grid; the rest go to per-destination batches that
	// keep their old local voxels (SendRebalSlab wire-encodes them).
	dest := make([]int, gOld.NX+1) // old local x-plane → new x-slab
	for ix := 1; ix <= gOld.NX; ix++ {
		dest[ix] = newLay.SlabX(oldX0 + ix - 1)
	}
	out := make([][]push.OutgoingBatch, dec.PX)
	for j := range out {
		out[j] = make([]push.OutgoingBatch, len(rk.Species))
	}
	for si, sp := range rk.Species {
		buf := sp.Buf
		for i := 0; i < buf.N(); {
			p := buf.At(i)
			ix, iy, iz := gOld.Unvoxel(int(p.Voxel))
			if j := dest[ix]; j != cx {
				out[j][si] = append(out[j][si], push.Outgoing{P: p})
				buf.RemoveSwap(i) // swaps in an unvisited particle
				continue
			}
			p.Voxel = int32(gNew.Voxel(oldX0+ix-newX0, iy, iz))
			buf.Set(i, p)
			i++
		}
	}

	// 3. Send every slab leaving this rank (counted on the old domain,
	// whose traffic counters adoptDomain carries over); keep the one
	// that stays.
	var kept []float32
	for j := 0; j < dec.PX; j++ {
		a, b := max(oldX0, newCX[j]), min(oldX1, newCX[j+1])
		if a >= b {
			continue
		}
		var slab []float32
		slabRows(dOld, rk.rho0, a, b, func(part []float32) { slab = append(slab, part...) })
		if j == cx {
			kept = slab
			continue
		}
		dOld.SendRebalSlab(dec.Rank(j, cy, cz), slab, a-oldX0+1, out[j])
	}

	// 4. Receive the gained slabs, peers in rank order, and fill the new
	// tile's rows from every slab.
	for j := 0; j < dec.PX; j++ {
		a, b := max(layOld.CX[j], newX0), min(layOld.CX[j+1], newX1)
		if a >= b {
			continue
		}
		slab := kept
		if j != cx {
			slab = dNew.RecvRebalSlab(dec.Rank(j, cy, cz), a-newX0+1, rk.bufs)
		}
		slabRows(dNew, rho0New, a, b, func(part []float32) { slab = slab[copy(part, slab):] })
	}

	rk.adoptDomain(cfg, dNew)
	rk.rho0 = rho0New

	// 5. Collective ghost re-prime (primeGhosts). J is not carried: the
	// next step clears and re-deposits it before any read.
	rk.primeGhosts()
}

// slabRows calls fn with the part of each state row (stateRows) of tile
// d, with background bg, that lies on global x-planes [a, b), in the
// walk's order. When b is the x-high wall, plane b, which only the last
// x rank holds (as its plane N+1) and which always stays with it, is
// part of the slab too: Mur's plane there is state. Every other plane
// N+1 a row reaches is derived (primeGhosts).
func slabRows(d *domain.Domain, bg []float32, a, b int, fn func(part []float32)) {
	if b == d.Cfg.Layout.Dec.GNX {
		b++
	}
	gx0, _, _ := d.Cfg.Layout.Origin(d.Rank)
	stateRows(d, bg, nil, func(_, v int, row []float32) {
		ix, _, _ := d.G.Unvoxel(v)
		x0 := gx0 + ix - 1 // row[0]'s global plane
		if lo, hi := max(a-x0, 0), min(b-x0, len(row)); lo < hi {
			fn(row[lo:hi])
		}
	})
}

// adoptDomain moves this rank onto d, a tile of the same world on
// another layout, rebuilding the grid-sized plumbing: interpolator,
// accumulators, scratch, kernels and the boundary shell, and marks
// every species' partition stale. The sort workspace stays: ByVoxel
// grows it to d's grid.
// Traffic counters carry over to d and per-species kernel counters via
// AdoptFrom, so cumulative diagnostics survive the swap. Field,
// background and particle state are the caller's to fill (particle
// voxels must index d's grid). It communicates nothing.
func (rk *Rank) adoptDomain(cfg *Config, d *domain.Domain) {
	d.ClassBytes, d.ClassMsgs = rk.D.ClassBytes, rk.D.ClassMsgs
	g := d.G
	rk.D = d
	rk.IP = interp.NewTable(g)
	rk.Acc = accum.New(g)
	for b := range rk.pipeAcc {
		rk.pipeAcc[b] = accum.New(g)
	}
	rk.rho = make([]float32, g.NV())
	rk.scratch = make([]float32, g.NV())
	for i, sp := range rk.Species {
		k := rk.newKernel(cfg, sp)
		k.AdoptFrom(rk.Kernels[i])
		rk.Kernels[i] = k
	}
	rk.presizeKernels()
	rk.shell = shellMask(d)
	rk.markStale()
}
