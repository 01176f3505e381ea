package core

import (
	"fmt"

	"govpic/internal/accum"
	"govpic/internal/balance"
	"govpic/internal/domain"
	"govpic/internal/field"
	"govpic/internal/grid"
	"govpic/internal/interp"
	"govpic/internal/mp"
	"govpic/internal/push"
	psort "govpic/internal/sort"
)

// Online plane shifting (Tier B): between steps, every rank runs the
// same collective imbalance check — one small float64 allreduce of the
// global per-x-plane particle histogram — and, when the particle-count
// imbalance exceeds the threshold, moves each partition plane at most
// one cell toward the bisection-optimal layout. The moved planes'
// fields and resident particles travel point-to-point between the two
// adjacent ranks (the "rebalance" traffic class); every rank then
// rebuilds its tile on the new layout and the world collectively
// re-primes ghost state. Because the trigger and the target cuts are
// pure functions of allreduced counts, every rank takes the same branch
// with no extra coordination, and because only interior state moves,
// the geometry-canonical digest is preserved bit-for-bit across a
// shift.

// maybeReshapeX runs one online balance check. Collective: every rank
// of the world must call it at the same step. Returns whether a plane
// shift happened (the same answer on every rank).
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
	newCX := balance.StepToward(lay.CX, target)
	if balance.CutsEqual(newCX, lay.CX) {
		return false
	}
	rk.reshapeX(cfg, newCX)
	return true
}

// reshapeX rebuilds this rank's tile under the new x-cuts, exchanging
// the moved planes with the x-neighbors. newCX must differ from the
// current cuts by at most one cell per plane (StepToward's contract:
// each interior cut moves ±1 or stays), and every rank must call
// reshapeX with the same newCX concurrently — the ghost re-prime at the
// end is collective even for ranks whose extent did not change.
func (rk *Rank) reshapeX(cfg *Config, newCX []int) {
	dOld := rk.D
	gOld := dOld.G
	layOld := dOld.Cfg.Layout
	cx, _, _ := layOld.Dec.Coord(dOld.Rank)
	oldX0, oldX1 := layOld.CX[cx], layOld.CX[cx+1]
	newX0, newX1 := newCX[cx], newCX[cx+1]
	dLo := newX0 - oldX0 // my low cut: +1 = moved up (I lose plane 1)
	dHi := newX1 - oldX1 // my high cut: -1 = moved down (I lose plane NX)
	nbrLo := dOld.Neighbor(field.XLo)
	nbrHi := dOld.Neighbor(field.XHi)

	arrsOld := rk.stripArrays(dOld.F.Ex, dOld.F.Ey, dOld.F.Ez,
		dOld.F.Bx, dOld.F.By, dOld.F.Bz, dOld.F.Jx, dOld.F.Jy, dOld.F.Jz)

	// 1. Extract the particles resident in planes this rank gives up,
	// wire-encoding their voxels (transverse index on the crossing
	// plane) so the receiver can rebuild them against its own strides.
	nSpec := len(rk.Species)
	outLo := make([]push.OutgoingBatch, nSpec)
	outHi := make([]push.OutgoingBatch, nSpec)
	if dLo == +1 || dHi == -1 {
		for si, sp := range rk.Species {
			buf := sp.Buf
			for i := 0; i < buf.N(); {
				p := buf.At(i)
				ix, _, _ := gOld.Unvoxel(int(p.Voxel))
				switch {
				case dLo == +1 && ix == 1:
					p.Voxel = domain.WireVoxel(gOld, 0, int(p.Voxel))
					outLo[si] = append(outLo[si], push.Outgoing{P: p})
					buf.RemoveSwap(i)
				case dHi == -1 && ix == gOld.NX:
					p.Voxel = domain.WireVoxel(gOld, 0, int(p.Voxel))
					outHi[si] = append(outHi[si], push.Outgoing{P: p})
					buf.RemoveSwap(i)
				default:
					i++
				}
			}
		}
	}

	// 2. Post the sends. Sequence scheme per destination: 0 = field
	// strip crossing my low cut, 1 = crossing my high cut, 16+2s /
	// 17+2s = species s particles crossing low / high. A receiver
	// therefore expects its high-side sequences (1, 17+2s) from the low
	// neighbor and the low-side ones (0, 16+2s) from the high neighbor,
	// which keeps tags distinct even when PX = 2 and both neighbors are
	// the same rank.
	var reqs []*mp.Request
	if dLo == +1 {
		reqs = append(reqs, dOld.ISendRebalPlane(nbrLo, 0, arrsOld, 1))
		for si := range rk.Species {
			reqs = append(reqs, dOld.ISendRebalParticles(nbrLo, 16+2*si, outLo[si]))
		}
	}
	if dHi == -1 {
		reqs = append(reqs, dOld.ISendRebalPlane(nbrHi, 1, arrsOld, gOld.NX))
		for si := range rk.Species {
			reqs = append(reqs, dOld.ISendRebalParticles(nbrHi, 17+2*si, outHi[si]))
		}
	}

	// 3. Build the new domain on the stepped layout.
	newLay, err := grid.NewLayout(layOld.Dec, newCX, layOld.CY, layOld.CZ)
	if err != nil {
		panic(fmt.Sprintf("core: reshape produced invalid layout: %v", err))
	}
	dcfg := dOld.Cfg
	dcfg.Layout = newLay
	dNew, err := domain.New(dcfg, dOld.Comm)
	if err != nil {
		panic(fmt.Sprintf("core: reshape domain rebuild failed: %v", err))
	}
	dNew.Overlap = dOld.Overlap
	gNew := dNew.G
	var rho0New []float32
	if rk.rho0 != nil {
		rho0New = make([]float32, gNew.NV())
	}
	arrsNew := rk.reshapeNewArrays(dNew, rho0New)

	// 4. Copy the surviving planes old → new (strides differ in x).
	sxOld, syOld, _ := gOld.Strides()
	sxNew, _, _ := gNew.Strides()
	szT := gOld.NZ + 2
	lo := oldX0
	if newX0 > lo {
		lo = newX0
	}
	hi := oldX1
	if newX1 < hi {
		hi = newX1
	}
	for gp := lo; gp < hi; gp++ {
		ixO := gp - oldX0 + 1
		ixN := gp - newX0 + 1
		for iz := 0; iz < szT; iz++ {
			for iy := 0; iy < syOld; iy++ {
				vO := ixO + sxOld*(iy+syOld*iz)
				vN := ixN + sxNew*(iy+syOld*iz)
				for ai := range arrsOld {
					arrsNew[ai][vN] = arrsOld[ai][vO]
				}
			}
		}
	}

	// 5. Receive the gained field strips into the new planes.
	if dLo == -1 { // gained the low neighbor's top plane → my new plane 1
		dNew.RecvRebalPlane(nbrLo, 1, arrsNew, 1)
	}
	if dHi == +1 { // gained the high neighbor's bottom plane → my new plane NX
		dNew.RecvRebalPlane(nbrHi, 0, arrsNew, gNew.NX)
	}

	// 6. Remap surviving particle voxels to the new grid, then land the
	// arrivals (direct appends — unlike migration these particles are
	// mid-plane residents, not boundary crossers, so there is no
	// remaining displacement to finish and no current to deposit).
	shift := oldX0 - newX0
	if shift != 0 || sxNew != sxOld {
		for _, sp := range rk.Species {
			buf := sp.Buf
			n := buf.N()
			for i := 0; i < n; i++ {
				p := buf.At(i)
				ix, iy, iz := gOld.Unvoxel(int(p.Voxel))
				p.Voxel = int32(gNew.Voxel(ix+shift, iy, iz))
				buf.Set(i, p)
			}
		}
	}
	if dLo == -1 {
		for si := range rk.Species {
			in := dNew.RecvRebalParticles(nbrLo, 17+2*si)
			buf := rk.Species[si].Buf
			for _, o := range in {
				p := o.P
				p.Voxel = domain.LandVoxel(gNew, 0, 1, p.Voxel)
				buf.Append(p)
			}
		}
	}
	if dHi == +1 {
		for si := range rk.Species {
			in := dNew.RecvRebalParticles(nbrHi, 16+2*si)
			buf := rk.Species[si].Buf
			for _, o := range in {
				p := o.P
				p.Voxel = domain.LandVoxel(gNew, 0, gNew.NX, p.Voxel)
				buf.Append(p)
			}
		}
	}

	// 7. Drain the sends, then carry the traffic counters (the strip
	// sends were counted on the old domain).
	for _, r := range reqs {
		if _, err := r.Wait(); err != nil {
			panic(fmt.Sprintf("core: reshape send failed: %v", err))
		}
	}
	dNew.CommBytes = dOld.CommBytes
	dNew.ClassBytes = dOld.ClassBytes
	dNew.ClassMsgs = dOld.ClassMsgs

	// 8. Rebuild the grid-sized plumbing; per-species counters carry
	// over via AdoptFrom so cumulative diagnostics survive the swap.
	rk.D = dNew
	rk.IP = interp.NewTable(gNew)
	rk.Acc = accum.New(gNew)
	for b := range rk.pipeAcc {
		rk.pipeAcc[b] = accum.New(gNew)
	}
	rk.sortWS = psort.NewWorkspace(gNew.NV())
	rk.sortWS.SetPool(rk.pool)
	rk.rho = make([]float32, gNew.NV())
	rk.scratch = make([]float32, gNew.NV())
	rk.rho0 = rho0New
	for i, sp := range rk.Species {
		k := rk.newKernel(cfg, sp)
		k.AdoptFrom(rk.Kernels[i])
		rk.Kernels[i] = k
	}
	if rk.splitPush {
		rk.shell = shellMask(dNew)
	}

	// 9. Collective ghost re-prime (E/B exchanges, background aliases,
	// interpolator reload). J's ghost planes are left stale — the next
	// step clears and re-deposits J before any read.
	rk.rebinPrime()
}

// stripArrays assembles the rebalance strip payload: the nine field
// components plus, when present, the neutralizing background (the
// receiver's set must match, which it does because NeutralizingBackground
// is global config).
func (rk *Rank) stripArrays(arrs ...[]float32) [][]float32 {
	if rk.rho0 != nil {
		arrs = append(arrs, rk.rho0)
	}
	return arrs
}

func (rk *Rank) reshapeNewArrays(d *domain.Domain, rho0 []float32) [][]float32 {
	f := d.F
	arrs := [][]float32{f.Ex, f.Ey, f.Ez, f.Bx, f.By, f.Bz, f.Jx, f.Jy, f.Jz}
	if rho0 != nil {
		arrs = append(arrs, rho0)
	}
	return arrs
}
