package grid

import (
	"fmt"
	"slices"
)

// Layout is a plane-based partition of the global mesh: the Decomp fixes
// the rank topology (PX×PY×PZ, neighbor wiring, rank ordering) while the
// cut arrays place the partition planes, so tiles need not be uniform.
// CX has PX+1 entries: slab i owns global cells [CX[i], CX[i+1]) along x
// (0-based), and likewise for CY, CZ. The uniform layout is the special
// case where every slab has the same extent — what ChooseDecomp's
// divisibility requirement guarantees.
//
// Non-uniform cuts are global planes: every rank sharing a slab index
// has the same extent along that axis, so ghost planes, fold planes and
// particle-migration faces always match between neighbors — the
// invariant the dynamic load balancer relies on to move planes without
// touching the exchange protocol.
type Layout struct {
	Dec        Decomp
	CX, CY, CZ []int
}

// Uniform returns the evenly divided layout of a decomposition (which
// ChooseDecomp guarantees divides evenly).
func Uniform(dec Decomp) Layout {
	return Layout{
		Dec: dec,
		CX:  uniformCuts(dec.GNX, dec.PX),
		CY:  uniformCuts(dec.GNY, dec.PY),
		CZ:  uniformCuts(dec.GNZ, dec.PZ),
	}
}

func uniformCuts(gn, p int) []int {
	c := make([]int, p+1)
	for i := 0; i <= p; i++ {
		c[i] = i * gn / p
	}
	return c
}

// NewLayout validates a cut placement against a decomposition. Each cut
// array must start at 0, end at the global cell count, and rise by at
// least one cell per slab (every rank owns at least one plane).
func NewLayout(dec Decomp, cx, cy, cz []int) (Layout, error) {
	if err := checkCuts("x", cx, dec.PX, dec.GNX); err != nil {
		return Layout{}, err
	}
	if err := checkCuts("y", cy, dec.PY, dec.GNY); err != nil {
		return Layout{}, err
	}
	if err := checkCuts("z", cz, dec.PZ, dec.GNZ); err != nil {
		return Layout{}, err
	}
	return Layout{Dec: dec, CX: cx, CY: cy, CZ: cz}, nil
}

func checkCuts(axis string, c []int, p, gn int) error {
	if len(c) != p+1 {
		return fmt.Errorf("grid: %s cuts need %d entries, got %d", axis, p+1, len(c))
	}
	if c[0] != 0 || c[p] != gn {
		return fmt.Errorf("grid: %s cuts must span [0,%d], got [%d,%d]", axis, gn, c[0], c[p])
	}
	for i := 0; i < p; i++ {
		if c[i+1] <= c[i] {
			return fmt.Errorf("grid: %s cut %d (%d→%d) leaves an empty slab", axis, i, c[i], c[i+1])
		}
	}
	return nil
}

// Local returns rank's tile under the layout, for a global mesh with
// cell sizes (dx,dy,dz) whose origin is 0.
func (l Layout) Local(rank int, dx, dy, dz float64) (*Grid, error) {
	cx, cy, cz := l.Dec.Coord(rank)
	return New(
		l.CX[cx+1]-l.CX[cx], l.CY[cy+1]-l.CY[cy], l.CZ[cz+1]-l.CZ[cz],
		dx, dy, dz,
		float64(l.CX[cx])*dx,
		float64(l.CY[cy])*dy,
		float64(l.CZ[cz])*dz)
}

// Origin returns the global cell index of rank's low corner (the global
// cell id of its local cell (1,1,1)).
func (l Layout) Origin(rank int) (gx, gy, gz int) {
	cx, cy, cz := l.Dec.Coord(rank)
	return l.CX[cx], l.CY[cy], l.CZ[cz]
}

// Equal reports whether two layouts partition the mesh identically.
func (l Layout) Equal(o Layout) bool {
	if l.Dec != o.Dec {
		return false
	}
	return slices.Equal(l.CX, o.CX) && slices.Equal(l.CY, o.CY) && slices.Equal(l.CZ, o.CZ)
}

// SlabX returns the x-slab index owning global cell gx (0-based).
func (l Layout) SlabX(gx int) int {
	for i := 0; i < l.Dec.PX; i++ {
		if gx < l.CX[i+1] {
			return i
		}
	}
	return l.Dec.PX - 1
}

// ChooseDecompFixedPX is ChooseDecomp with the x-slab count pinned (the
// form the load balancer needs: non-uniform x cuts lift the x
// divisibility requirement, so only y and z must divide evenly).
func ChooseDecompFixedPX(nRanks, px, gnx, gny, gnz int) (Decomp, error) {
	if px < 1 || nRanks%px != 0 {
		return Decomp{}, fmt.Errorf("grid: %d ranks cannot split into %d x-slabs", nRanks, px)
	}
	if gnx < px {
		return Decomp{}, fmt.Errorf("grid: %d cells along x cannot feed %d slabs", gnx, px)
	}
	rem := nRanks / px
	best := Decomp{}
	bestSurf := -1.0
	for py := 1; py <= rem; py++ {
		if rem%py != 0 || gny%py != 0 {
			continue
		}
		pz := rem / py
		if gnz%pz != 0 {
			continue
		}
		lx, ly, lz := float64(gnx)/float64(px), float64(gny/py), float64(gnz/pz)
		surf := 2 * (lx*ly + ly*lz + lz*lx)
		if bestSurf < 0 || surf < bestSurf {
			bestSurf = surf
			best = Decomp{PX: px, PY: py, PZ: pz, GNX: gnx, GNY: gny, GNZ: gnz}
		}
	}
	if bestSurf < 0 {
		return Decomp{}, fmt.Errorf("grid: cannot decompose %d×%d cells over %d ranks transverse to %d x-slabs", gny, gnz, nRanks, px)
	}
	return best, nil
}
