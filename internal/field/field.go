// Package field implements the electromagnetic field state and the
// explicit FDTD Maxwell solver on the Yee mesh, in VPIC's normalization
// (c = ε0 = µ0 = 1, B arrays store cB):
//
//	∂B/∂t = −∇×E
//	∂E/∂t = ∇×B − J
//
// Yee staggering relative to cell (i,j,k)'s low corner node:
//
//	Ex,Jx on the x-edge (+½dx);  Ey,Jy on the y-edge;  Ez,Jz on the z-edge
//	Bx on the x-face (+½dy+½dz); By on the y-face;     Bz on the z-face
//
// Interior updates cover node indices 1..N on each axis; index N+1 holds
// the high-boundary degrees of freedom, owned by the boundary condition
// (periodic copy, perfect conductor, first-order Mur absorber, or the
// domain exchange on a remote face), and index 0 is a pure ghost layer.
package field

import (
	"fmt"

	"govpic/internal/grid"
)

// BC selects the field boundary condition applied on one domain face.
type BC uint8

const (
	// Periodic identifies the two opposing faces of the axis.
	Periodic BC = iota
	// Conductor is a perfect electric conductor: tangential E and normal
	// B vanish on the face.
	Conductor
	// Absorbing is a first-order Mur absorbing boundary for tangential E,
	// suitable for letting laser light leave the box.
	Absorbing
	// Remote marks a face a neighbour rank owns: the domain fills its
	// planes, and no local boundary pass touches them. Only the domain
	// assigns it.
	Remote
)

func (b BC) String() string {
	switch b {
	case Periodic:
		return "periodic"
	case Conductor:
		return "conductor"
	case Absorbing:
		return "absorbing"
	case Remote:
		return "remote"
	}
	return fmt.Sprintf("BC(%d)", uint8(b))
}

// Face indexes the six domain faces.
type Face int

const (
	XLo Face = iota
	XHi
	YLo
	YHi
	ZLo
	ZHi
	NumFaces
)

// Axis returns the axis (0,1,2) the face is normal to.
func (f Face) Axis() int { return int(f) / 2 }

// High reports whether the face is on the high side of its axis.
func (f Face) High() bool { return int(f)%2 == 1 }

// Fields holds the electromagnetic state of one rank's domain.
type Fields struct {
	G *grid.Grid

	// Electric field on Yee edges and the free current driving it.
	Ex, Ey, Ez []float32
	Jx, Jy, Jz []float32
	// cB on Yee faces.
	Bx, By, Bz []float32

	bc [NumFaces]BC

	mur  *murState // lazily allocated when any face is Absorbing
	curl curl      // the pooled advances' task (advance.go)
}

// New allocates a zeroed field state on g with the given per-face
// boundary conditions. Periodic conditions must be specified on both
// faces of an axis or neither, so a periodic axis is always local: a
// decomposed one has Remote on both faces.
func New(g *grid.Grid, bc [NumFaces]BC) (*Fields, error) {
	for axis := 0; axis < 3; axis++ {
		lo, hi := bc[2*axis], bc[2*axis+1]
		if (lo == Periodic) != (hi == Periodic) {
			return nil, fmt.Errorf("field: axis %d mixes %v with %v", axis, lo, hi)
		}
	}
	nv := g.NV()
	f := &Fields{
		G:  g,
		Ex: make([]float32, nv), Ey: make([]float32, nv), Ez: make([]float32, nv),
		Bx: make([]float32, nv), By: make([]float32, nv), Bz: make([]float32, nv),
		Jx: make([]float32, nv), Jy: make([]float32, nv), Jz: make([]float32, nv),
		bc: bc,
	}
	for face := Face(0); face < NumFaces; face++ {
		if bc[face] == Absorbing {
			f.mur = &murState{}
			break
		}
	}
	return f, nil
}

// MustNew is New but panics on error.
func MustNew(g *grid.Grid, bc [NumFaces]BC) *Fields {
	f, err := New(g, bc)
	if err != nil {
		panic(err)
	}
	return f
}

// NewPeriodic allocates a fully periodic field state on g.
func NewPeriodic(g *grid.Grid) *Fields {
	return MustNew(g, [NumFaces]BC{})
}

// ClearJ zeroes the free-current arrays; called once per step before
// particle deposition.
func (f *Fields) ClearJ() {
	clear(f.Jx)
	clear(f.Jy)
	clear(f.Jz)
}

// copyPlane copies the source plane (axis index src) onto the
// destination plane (axis index dst) for every array in arrs, row by
// row (grid.Plane).
func (f *Fields) copyPlane(arrs [][]float32, axis, dst, src int) {
	d, run, stride, n := f.G.Plane(axis, dst)
	s, _, _, _ := f.G.Plane(axis, src)
	end := n * stride
	for _, a := range arrs {
		if run == 1 {
			for k := 0; k < end; k += stride {
				a[d+k] = a[s+k]
			}
			continue
		}
		for k := 0; k < end; k += stride {
			copy(a[d+k:d+k+run], a[s+k:s+k+run])
		}
	}
}

// addPlane adds the source plane into the destination plane and zeroes
// the source, used to fold periodic ghost currents.
func (f *Fields) addPlane(arrs [][]float32, axis, dst, src int) {
	d, run, stride, n := f.G.Plane(axis, dst)
	s, _, _, _ := f.G.Plane(axis, src)
	end := n * stride
	for _, a := range arrs {
		if run == 1 {
			for k := 0; k < end; k += stride {
				a[d+k] += a[s+k]
				a[s+k] = 0
			}
			continue
		}
		for k := 0; k < end; k += stride {
			dr, sr := a[d+k:d+k+run], a[s+k:s+k+run]
			for i := range dr {
				dr[i] += sr[i]
				sr[i] = 0
			}
		}
	}
}

// UpdateGhostE refreshes the boundary-owned (index N+1) and ghost
// (index 0) electric-field planes on locally owned faces (localGhosts);
// on a conductor it zeroes tangential E on the face. Remote faces are
// left for the domain exchange.
func (f *Fields) UpdateGhostE() {
	arrs := [][]float32{f.Ex, f.Ey, f.Ez}
	for axis := 0; axis < 3; axis++ {
		if f.localGhosts(arrs, axis, arrs[axis:axis+1]) {
			f.applyEBoundary(Face(2*axis), axis)
			f.applyEBoundary(Face(2*axis+1), axis)
		}
	}
}

// UpdateGhostB refreshes the locally owned ghost B planes (localGhosts).
func (f *Fields) UpdateGhostB() {
	arrs := [][]float32{f.Bx, f.By, f.Bz}
	for axis := 0; axis < 3; axis++ {
		f.localGhosts(arrs, axis, arrs)
	}
}

// localGhosts writes arrs' ghost planes normal to axis on local faces,
// and reports whether the axis has a wall: periodic copies, or zero
// beyond a wall — all of arrs on plane 0, hi on plane N+1 (E's normal
// component: the face's BC owns tangential E there; a conductor zeroes
// it, Mur writes it after the advance). The normal components beyond a
// wall are read (E's on plane 0 by div E, B's on plane N+1 by the
// interpolators), so a wall writes every ghost plane.
func (f *Fields) localGhosts(arrs [][]float32, axis int, hi [][]float32) bool {
	n := axisN(f.G, axis)
	if f.bc[2*axis] == Periodic {
		f.copyPlane(arrs, axis, n+1, 1) // high boundary node ≡ low boundary node
		f.copyPlane(arrs, axis, 0, n)   // low ghost
		return false
	}
	if f.bc[2*axis] != Remote {
		f.zeroPlane(arrs, axis, 0)
	}
	if f.bc[2*axis+1] != Remote {
		f.zeroPlane(hi, axis, n+1)
	}
	return true
}

// FoldGhostJ folds periodic ghost-plane currents (deposited at index
// N+1 by particles in the last cell row) onto the owning low plane, for
// periodic axes, and leaves plane N+1 zero. Nothing is mirrored back:
// the E advance, J's only reader, reads planes 1..N.
func (f *Fields) FoldGhostJ() {
	arrs := [][]float32{f.Jx, f.Jy, f.Jz}
	for axis := 0; axis < 3; axis++ {
		if f.bc[2*axis] == Periodic {
			f.addPlane(arrs, axis, 1, axisN(f.G, axis)+1)
		}
	}
}

// FoldNodeScalar folds a node-centered scalar's periodic boundary
// planes: deposition writes both node 1 and its alias N+1, and the alias
// is summed onto node 1 and left zero (div E − ρ reads nodes 1..N).
// Remote faces are the exchange layer's job.
func (f *Fields) FoldNodeScalar(a []float32) {
	arrs := [][]float32{a}
	for axis := 0; axis < 3; axis++ {
		if f.bc[2*axis] == Periodic {
			f.addPlane(arrs, axis, 1, axisN(f.G, axis)+1)
		}
	}
}

func (f *Fields) zeroPlane(arrs [][]float32, axis, idx int) {
	d, run, stride, n := f.G.Plane(axis, idx)
	for _, a := range arrs {
		for k := d; k < d+n*stride; k += stride {
			if run == 1 {
				a[k] = 0
			} else {
				clear(a[k : k+run])
			}
		}
	}
}

func axisN(g *grid.Grid, axis int) int {
	switch axis {
	case 0:
		return g.NX
	case 1:
		return g.NY
	default:
		return g.NZ
	}
}
