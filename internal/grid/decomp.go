package grid

import "fmt"

// Decomp describes a 3-D Cartesian decomposition of a global mesh into
// PX×PY×PZ rank domains.
type Decomp struct {
	PX, PY, PZ    int
	GNX, GNY, GNZ int // global interior cell counts
}

// ChooseDecomp picks the PX×PY×PZ factorization of nRanks that divides
// the global cell counts evenly and minimizes the total communication
// surface (the metric VPIC's decomposition targets). It returns an error
// when no factorization divides the mesh.
func ChooseDecomp(nRanks, gnx, gny, gnz int) (Decomp, error) {
	if nRanks < 1 {
		return Decomp{}, fmt.Errorf("grid: nRanks must be ≥1, got %d", nRanks)
	}
	best := Decomp{}
	bestSurf := -1.0
	for px := 1; px <= nRanks; px++ {
		if nRanks%px != 0 || gnx%px != 0 {
			continue
		}
		rem := nRanks / px
		for py := 1; py <= rem; py++ {
			if rem%py != 0 || gny%py != 0 {
				continue
			}
			pz := rem / py
			if gnz%pz != 0 {
				continue
			}
			lx, ly, lz := float64(gnx/px), float64(gny/py), float64(gnz/pz)
			surf := 2 * (lx*ly + ly*lz + lz*lx)
			if bestSurf < 0 || surf < bestSurf {
				bestSurf = surf
				best = Decomp{PX: px, PY: py, PZ: pz, GNX: gnx, GNY: gny, GNZ: gnz}
			}
		}
	}
	if bestSurf < 0 {
		return Decomp{}, fmt.Errorf("grid: cannot decompose %d×%d×%d cells over %d ranks", gnx, gny, gnz, nRanks)
	}
	return best, nil
}

// NRanks returns the total rank count of the decomposition.
func (d Decomp) NRanks() int { return d.PX * d.PY * d.PZ }

// Coord returns the (cx,cy,cz) Cartesian coordinate of a rank
// (x-fastest ordering).
func (d Decomp) Coord(rank int) (cx, cy, cz int) {
	cx = rank % d.PX
	rank /= d.PX
	cy = rank % d.PY
	cz = rank / d.PY
	return
}

// Rank returns the rank id at Cartesian coordinate (cx,cy,cz), wrapping
// periodically in each axis (so Rank(-1,0,0) is the high-x neighbor's
// id), which is what the periodic particle/field exchange needs.
func (d Decomp) Rank(cx, cy, cz int) int {
	cx = wrap(cx, d.PX)
	cy = wrap(cy, d.PY)
	cz = wrap(cz, d.PZ)
	return cx + d.PX*(cy+d.PY*cz)
}

func wrap(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// Neighbor returns the rank across the given face of rank r, and whether
// that crossing wraps around the global domain (relevant for non-periodic
// boundaries). Face encoding: axis ∈ {0,1,2} for x,y,z; dir ∈ {-1,+1}.
func (d Decomp) Neighbor(rank, axis, dir int) (nbr int, wraps bool) {
	cx, cy, cz := d.Coord(rank)
	switch axis {
	case 0:
		wraps = (cx == 0 && dir < 0) || (cx == d.PX-1 && dir > 0)
		cx += dir
	case 1:
		wraps = (cy == 0 && dir < 0) || (cy == d.PY-1 && dir > 0)
		cy += dir
	case 2:
		wraps = (cz == 0 && dir < 0) || (cz == d.PZ-1 && dir > 0)
		cz += dir
	default:
		panic("grid: axis must be 0, 1, or 2")
	}
	return d.Rank(cx, cy, cz), wraps
}
