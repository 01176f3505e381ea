// Package domain implements the parallel decomposition layer: each rank
// owns one tile of the global Yee mesh and this package services
// everything that crosses tile boundaries — ghost-plane exchange of E
// and B, boundary reduction of deposited currents and charge, and
// mid-step particle migration — over the mp substrate. The communication
// pattern (what is sent, to whom, and when in the step) mirrors VPIC's,
// so the surface-to-volume scaling the paper measures on Roadrunner is
// reproduced structurally.
//
// Every exchange class runs on a persistent plan (plan.go) that New
// builds once: per remote face, two packed send slots used alternately,
// so a steady-state exchange allocates nothing. Two slots are enough.
// In-process, payloads pass by reference and the receiver unpacks
// straight from the sender's slot, after the sender's Send has
// returned. A slot is rewritten two uses later, and between those uses
// the sender has received a message its peer posted after finishing
// that unpack: exchanges are sequential on each rank, and the use in
// between is either two-way — a two-sided fill or a particle exchange
// receives from every peer it sends to — or one-way (a fold or a
// one-sided fill), which is always its face's first use in a step, so
// the particle exchange that opens the step, receiving on every remote
// face, lies between. Over TCP, Send encodes into a fresh frame
// before it returns, so there a slot is free at once. The particle
// plans keep the same rule: the main exchange and each settle sweep
// receive on every face they send through. A layout that splits one
// axis runs no settle collective, which used to order it too; there the
// step's fills do: each step a rank receives a fill from every
// neighbor, sent after that neighbor's landing.
// The rebalance slabs are rare and keep one-shot messages.
package domain

import (
	"fmt"

	"govpic/internal/field"
	"govpic/internal/grid"
	"govpic/internal/mp"
	"govpic/internal/particle"
	"govpic/internal/push"
)

// Config describes the global simulation domain.
type Config struct {
	// Layout is the decomposition (Layout.Dec) and the placement of its
	// partition planes: grid.Uniform for the even division, moved cuts
	// under the dynamic load balancer.
	Layout     grid.Layout
	DX, DY, DZ float64
	// FieldBC holds the global field boundary conditions per face.
	FieldBC [field.NumFaces]field.BC
	// ParticleBC holds the particle action at each global wall. Faces of
	// periodic axes must use push.Wrap.
	ParticleBC [field.NumFaces]push.Action
}

// Tags partition the message space per exchange phase.
const (
	tagGhostE = 1 << 10
	tagGhostB = 2 << 10
	tagFoldJ  = 3 << 10
	tagFoldS  = 4 << 10
	tagGhostS = 5 << 10
	tagPart   = 6 << 10
	tagRebal  = 7 << 10
)

// Domain is one rank's tile.
type Domain struct {
	Cfg  Config
	Rank int
	Comm *mp.Comm
	G    *grid.Grid
	F    *field.Fields

	remote [field.NumFaces]bool
	nbr    [field.NumFaces]int
	// multiAxis records that the layout splits more than one axis, so
	// every rank agrees whether a landed migrant can still hold a
	// remote crossing (settleResidual).
	multiAxis bool

	// ClassBytes/ClassMsgs count the payload bytes and messages this rank
	// sent, by CommClass — the only traffic counters; totals are sums
	// over classes.
	ClassBytes [NumCommClasses]int64
	ClassMsgs  [NumCommClasses]int64

	// The persistent exchange plans, one per class (plan.go). parts has
	// one particle plan per species, built by the first exchange; px is
	// the particle exchange in flight.
	ghostE, ghostB, foldJ, foldS, ghostS plan
	parts                                []partPlan
	px                                   ParticleExchange
}

// New builds rank comm.Rank()'s tile of the global domain.
func New(cfg Config, comm *mp.Comm) (*Domain, error) {
	dec := cfg.Layout.Dec
	if dec.NRanks() != comm.Size() {
		return nil, fmt.Errorf("domain: decomposition has %d ranks, world has %d", dec.NRanks(), comm.Size())
	}
	rank := comm.Rank()
	g, err := cfg.Layout.Local(rank, cfg.DX, cfg.DY, cfg.DZ)
	if err != nil {
		return nil, err
	}
	d := &Domain{Cfg: cfg, Rank: rank, Comm: comm, G: g}
	p := [3]int{dec.PX, dec.PY, dec.PZ}
	split := 0
	for _, pa := range p {
		if pa > 1 {
			split++
		}
	}
	d.multiAxis = split > 1
	coord := [3]int{}
	coord[0], coord[1], coord[2] = dec.Coord(rank)
	for f := field.Face(0); f < field.NumFaces; f++ {
		axis, dir := f.Axis(), -1
		if f.High() {
			dir = +1
		}
		d.nbr[f], _ = dec.Neighbor(rank, axis, dir)
		if p[axis] == 1 {
			continue // single-rank axis: everything local
		}
		if cfg.FieldBC[2*axis] == field.Periodic {
			d.remote[f] = true // wrap exchange, even at the global edge
			continue
		}
		atWall := (dir < 0 && coord[axis] == 0) || (dir > 0 && coord[axis] == p[axis]-1)
		d.remote[f] = !atWall
	}
	if err := validateParticleBC(cfg); err != nil {
		return nil, err
	}
	bc := cfg.FieldBC
	for f, remote := range d.remote {
		if remote {
			bc[f] = field.Remote
		}
	}
	d.F, err = field.New(g, bc)
	if err != nil {
		return nil, err
	}
	d.ghostE = d.newPlan(tagGhostE, 3)
	d.ghostB = d.newPlan(tagGhostB, 3)
	d.foldJ = d.newPlan(tagFoldJ, 3)
	d.foldS = d.newPlan(tagFoldS, 1)
	d.ghostS = d.newPlan(tagGhostS, 1)
	return d, nil
}

func validateParticleBC(cfg Config) error {
	for axis := 0; axis < 3; axis++ {
		if cfg.FieldBC[2*axis] == field.Periodic {
			if cfg.ParticleBC[2*axis] != push.Wrap || cfg.ParticleBC[2*axis+1] != push.Wrap {
				return fmt.Errorf("domain: periodic axis %d needs Wrap particle BC", axis)
			}
		} else if cfg.ParticleBC[2*axis] == push.Wrap || cfg.ParticleBC[2*axis+1] == push.Wrap {
			return fmt.Errorf("domain: Wrap particle BC on non-periodic axis %d", axis)
		}
	}
	return nil
}

// Remote reports whether the face is serviced by a neighbor rank.
func (d *Domain) Remote(f field.Face) bool { return d.remote[f] }

// ParticleActions returns the per-face push actions this rank must use:
// Migrate on remote faces, the global wall action otherwise.
func (d *Domain) ParticleActions() [6]push.Action {
	var a [6]push.Action
	for f := field.Face(0); f < field.NumFaces; f++ {
		if d.remote[f] {
			a[f] = push.Migrate
		} else {
			a[f] = d.Cfg.ParticleBC[f]
		}
	}
	return a
}

// shift is every grid exchange's one body. Plane N+k of a tile and
// plane k of its high neighbor are one global plane, and per axis a
// shift carries planes across the remote faces from one alias to the
// other: up, the high faces send plane N+k and each rank writes (or,
// with a fold, accumulates) what its low neighbor sent into plane k;
// down, the low faces send plane 1 into the low neighbor's plane N+1.
// A fill of both sides posts both directions of an axis before it
// receives either, so it waits one round per axis; on every link the
// receives run in the order of the sends. The axes stay sequential: a
// plane spans the full ghost-inclusive extent of the other two axes, so
// corner values propagate through successive hops.
func (d *Domain) shift(p *plan, arrs [][]float32, m shiftMode) {
	n := [3]int{d.G.NX, d.G.NY, d.G.NZ}
	up, down, add := m != fillHigh, m == fillHigh || m == fillBoth, m == fold
	k := 0 // an up fill: plane N into the ghost plane 0
	if add {
		k = 1 // the fold: ghost plane N+1 onto the owned plane 1
	}
	for axis := 0; axis < 3; axis++ {
		lo, hi := field.Face(2*axis), field.Face(2*axis+1)
		if up && d.remote[hi] {
			d.post(p, hi, arrs, n[axis]+k)
		}
		if down && d.remote[lo] {
			d.post(p, lo, arrs, 1)
		}
		// The peer sent through the face that faces this one.
		if up && d.remote[lo] {
			data := d.Comm.Recv(d.nbr[lo], p.tag+int(hi))
			unpackPlane(data.([]float32), d.G, arrs, axis, k, add)
		}
		if down && d.remote[hi] {
			data := d.Comm.Recv(d.nbr[hi], p.tag+int(lo))
			unpackPlane(data.([]float32), d.G, arrs, axis, n[axis]+1, false)
		}
	}
}

// shiftMode names a shift's directions and what it does with a plane.
// A one-sided fill's mode is fillLow+shiftMode(s) for its Side s.
type shiftMode int

const (
	fillLow  shiftMode = iota // up, plane N into 0
	fillHigh                  // down, plane 1 into N+1
	fillBoth                  // fillLow and fillHigh in one round per axis
	fold                      // up, plane N+1 added onto 1
)

// Side names the ghost side a one-sided fill writes.
type Side int

const (
	Low  Side = iota // plane 0, shifted up from the low neighbor's plane N
	High             // plane N+1, shifted down from the high neighbor's plane 1
)

// FillGhostE fills side s of E's remote ghost planes (a step fills only
// the side its next reader reads).
func (d *Domain) FillGhostE(s Side) {
	d.shift(&d.ghostE, [][]float32{d.F.Ex, d.F.Ey, d.F.Ez}, fillLow+shiftMode(s))
}

// FillGhostB fills side s of B's remote ghost planes.
func (d *Domain) FillGhostB(s Side) {
	d.shift(&d.ghostB, [][]float32{d.F.Bx, d.F.By, d.F.Bz}, fillLow+shiftMode(s))
}

// ExchangeGhostE fills both sides of E's remote ghost planes.
func (d *Domain) ExchangeGhostE() {
	d.shift(&d.ghostE, [][]float32{d.F.Ex, d.F.Ey, d.F.Ez}, fillBoth)
}

// ExchangeGhostB fills both sides of B's remote ghost planes.
func (d *Domain) ExchangeGhostB() {
	d.shift(&d.ghostB, [][]float32{d.F.Bx, d.F.By, d.F.Bz}, fillBoth)
}

// ExchangeJ folds the deposited current onto its owners across remote
// faces: plane N+1 into the high neighbor's plane 1. Nothing is mirrored
// back: J's only reader, the E advance, reads planes 1..N, and the next
// step clears J before depositing again.
func (d *Domain) ExchangeJ() {
	d.shift(&d.foldJ, [][]float32{d.F.Jx, d.F.Jy, d.F.Jz}, fold)
}

// ExchangeNodeScalar folds a node-centered scalar (charge density) onto
// its owners across remote faces, plane N+1 into the high neighbor's
// plane 1, and mirrors nothing back: div E − ρ reads nodes 1..N.
func (d *Domain) ExchangeNodeScalar(a []float32) {
	d.shift(&d.foldS, [][]float32{a}, fold)
}

// ExchangeScalarGhost fills both sides of a scalar's remote ghost planes
// without folding (for fields computable independently on each side,
// like the Marder error scalar).
func (d *Domain) ExchangeScalarGhost(a []float32) {
	d.shift(&d.ghostS, [][]float32{a}, fillBoth)
}

// packPlane writes the plane idx normal to axis of every array into buf
// in the wire order — the plane's voxels in ascending order, the arrays
// interleaved within each voxel — walking each array's rows
// (grid.Plane) in turn, or one strided loop for an x-normal plane. buf
// holds exactly the plane's values.
func packPlane(buf []float32, g *grid.Grid, arrs [][]float32, axis, idx int) {
	first, run, stride, n := g.Plane(axis, idx)
	end, m := first+n*stride, len(arrs)
	for j, a := range arrs {
		i := j
		if run == 1 {
			for k := first; k < end; k += stride {
				buf[i] = a[k]
				i += m
			}
			continue
		}
		for k := first; k < end; k += stride {
			for _, x := range a[k : k+run] {
				buf[i] = x
				i += m
			}
		}
	}
}

// unpackPlane is packPlane's inverse: it overwrites (add=false) or
// accumulates into (add=true) the plane from buf.
func unpackPlane(buf []float32, g *grid.Grid, arrs [][]float32, axis, idx int, add bool) {
	first, run, stride, n := g.Plane(axis, idx)
	end, m := first+n*stride, len(arrs)
	for j, a := range arrs {
		i := j
		switch {
		case run == 1 && add:
			for k := first; k < end; k += stride {
				a[k] += buf[i]
				i += m
			}
		case run == 1:
			for k := first; k < end; k += stride {
				a[k] = buf[i]
				i += m
			}
		default:
			for k := first; k < end; k += stride {
				row := a[k : k+run]
				for r := range row {
					if add {
						row[r] += buf[i]
					} else {
						row[r] = buf[i]
					}
					i += m
				}
			}
		}
	}
}

// ParticleExchange is one particle migration in flight, split so the
// caller can compute while migrants travel. Begin snapshots every remote
// face's outgoing list in a fixed (axis, species, lo, hi) order and
// sends it; Complete receives and lands the arrivals in that order,
// then settles stragglers — a migrant that, while finishing its move on
// the receiving rank, crosses a face on another axis (the multi-pass
// settling VPIC's boundary handler performs). kernels and
// bufs are parallel slices, one per species.
type ParticleExchange struct {
	d       *Domain
	kernels []*push.Kernel
	bufs    []*particle.Buffer
}

// BeginParticleExchange snapshots and sends every species' outgoing
// migrants through the domain's particle plans, and returns the
// domain's one exchange in flight. The outgoing lists must be final for
// the faces being exchanged: under the CFL bound a particle crosses at
// most one face per axis per step, so only boundary-shell particles can
// migrate and the snapshot may be taken as soon as the shell is pushed.
// A rank with no remote face sends nothing.
func (d *Domain) BeginParticleExchange(kernels []*push.Kernel, bufs []*particle.Buffer) *ParticleExchange {
	d.px = ParticleExchange{d: d, kernels: kernels, bufs: bufs}
	d.growParticlePlans(len(kernels))
	for axis := 0; axis < 3; axis++ {
		lo, hi := field.Face(2*axis), field.Face(2*axis+1)
		for s, k := range kernels {
			pp := &d.parts[s]
			// Always send on remote faces, even empty lists: the
			// protocol is deterministic.
			if d.remote[lo] {
				d.postParticles(&pp[lo], k, lo, s)
			}
			if d.remote[hi] {
				d.postParticles(&pp[hi], k, hi, s)
			}
		}
	}
	return &d.px
}

// Complete finishes the migration: arrivals land in the fixed Begin
// order, lo-tagged first per (axis, species) as each link carries them,
// then residual crossers (a migrant re-crossing on a later axis while
// landing) are settled with synchronous sweeps.
func (x *ParticleExchange) Complete() {
	d := x.d
	for axis := 0; axis < 3; axis++ {
		lo, hi := field.Face(2*axis), field.Face(2*axis+1)
		for s, k := range x.kernels {
			if d.remote[hi] {
				d.landFrom(s, hi, k, x.bufs[s])
			}
			if d.remote[lo] {
				d.landFrom(s, lo, k, x.bufs[s])
			}
		}
	}
	x.settleResidual()
}

// landFrom receives species s's batch on face f — the peer sent it
// through the face that faces this one — and lands it on f's entry
// plane: N from the high side, 1 from the low side.
func (d *Domain) landFrom(s int, f field.Face, k *push.Kernel, buf *particle.Buffer) {
	data := d.Comm.Recv(d.nbr[f], tagPart+16*s+int(f^1))
	axis, entry := f.Axis(), 1
	if f.High() {
		entry = [3]int{d.G.NX, d.G.NY, d.G.NZ}[axis]
	}
	d.landParticles(k, buf, batchOf(data), axis, entry)
}

// batchOf returns a particle message's batch: a plan slot's pointer
// in-process, the decoded value over TCP.
func batchOf(data any) push.OutgoingBatch {
	if p, ok := data.(*push.OutgoingBatch); ok {
		return *p
	}
	return data.(push.OutgoingBatch)
}

// settleResidual repeats synchronous axis sweeps until no rank holds an
// outgoing migrant. The flattened main exchange has no in-sweep
// cross-axis forwarding, so a particle crossing faces on k axes needs
// up to k-1 extra sweeps (each sweep forwards across all three axes in
// order); with at most one face crossing per axis per step, two
// productive sweeps beyond the main exchange always suffice. A layout
// that splits one axis needs none: a landed migrant has crossed that
// axis's one face this step, and every other axis is local, so a
// residual means the CFL bound was broken, and each rank checks its own
// without a collective.
func (x *ParticleExchange) settleResidual() {
	d := x.d
	for round := 0; ; round++ {
		var residual int64
		for _, k := range x.kernels {
			for f := field.Face(0); f < field.NumFaces; f++ {
				if d.remote[f] {
					residual += int64(len(k.Out[f]))
				}
			}
		}
		if d.multiAxis {
			residual = d.Comm.AllreduceSumInt(residual)
		}
		if residual == 0 {
			return
		}
		if round >= 3 || !d.multiAxis {
			panic("domain: particle exchange did not settle (dt beyond CFL?)")
		}
		d.exchangeParticlesSweep(x.kernels, x.bufs)
	}
}

// exchangeParticlesSweep is one settle round on the particle plans:
// per (axis, species), send both faces' outgoing lists, then receive
// and land, lo-tagged first as Complete does — so a migrant that
// re-crosses on a later axis while landing is forwarded in the same
// sweep.
func (d *Domain) exchangeParticlesSweep(kernels []*push.Kernel, bufs []*particle.Buffer) {
	for axis := 0; axis < 3; axis++ {
		lo, hi := field.Face(2*axis), field.Face(2*axis+1)
		for s, k := range kernels {
			// Always exchange on remote faces, even empty lists: the
			// protocol is deterministic.
			pp := &d.parts[s]
			if d.remote[lo] {
				d.postParticles(&pp[lo], k, lo, s)
			}
			if d.remote[hi] {
				d.postParticles(&pp[hi], k, hi, s)
			}
			if d.remote[hi] {
				d.landFrom(s, hi, k, bufs[s])
			}
			if d.remote[lo] {
				d.landFrom(s, lo, k, bufs[s])
			}
		}
	}
}

// WireVoxel encodes a local voxel for migration across the given axis:
// the particle's *transverse* index on the crossing plane. Partition
// cuts are global planes, so the two transverse strides always match
// between the sender and the receiver — even when the tiles differ
// along the crossing axis, as they do under a non-uniform balanced
// layout — while a full 3D voxel would decode wrongly whenever the
// crossing-axis extents differ.
func WireVoxel(g *grid.Grid, axis, voxel int) int32 {
	ix, iy, iz := g.Unvoxel(voxel)
	sx, sy, _ := g.Strides()
	switch axis {
	case 0:
		return int32(iy + sy*iz)
	case 1:
		return int32(ix + sx*iz)
	default:
		return int32(ix + sx*iy)
	}
}

// LandVoxel decodes a WireVoxel-encoded arrival onto the receiver's
// entry plane on the crossing axis.
func LandVoxel(g *grid.Grid, axis, entry int, wire int32) int32 {
	sx, sy, _ := g.Strides()
	t := int(wire)
	var ix, iy, iz int
	switch axis {
	case 0:
		ix, iy, iz = entry, t%sy, t/sy
	case 1:
		ix, iy, iz = t%sx, entry, t/sx
	default:
		ix, iy, iz = t%sx, t/sx, entry
	}
	return int32(g.Voxel(ix, iy, iz))
}

// landParticles remaps arrivals onto this rank's entry cells on the
// given axis (entry index 1 when coming from the low side, N when coming
// from the high side) and finishes their moves.
func (d *Domain) landParticles(k *push.Kernel, buf *particle.Buffer, in []push.Outgoing, axis, entry int) {
	g := d.G
	for _, o := range in {
		o.P.Voxel = LandVoxel(g, axis, entry, o.P.Voxel)
		k.FinishMove(buf, o)
	}
}

// Rebalance transfers: when the load balancer moves the x-cuts, each
// old owner ships every slab of global planes that changes hands to its
// new owner under the tagRebal window — the slab's field state, then
// one particle batch per species. Each (sender, receiver) link carries
// at most one slab per reshape, and links deliver in order, so one tag
// serves every message.

// SendRebalSlab sends state, the field state of a slab of this
// domain's x-planes that starts at local plane lo (in the order the
// caller walks it), to dst, then one batch per species of the particles
// resident in the slab. The batches hold local voxels of this domain;
// they are rewritten in place to the wire form, plane offset from lo
// times the plane size plus the transverse WireVoxel.
func (d *Domain) SendRebalSlab(dst int, state []float32, lo int, parts []push.OutgoingBatch) {
	n := d.G.PlaneSize(0)
	d.countSend(tagRebal, 4*len(state))
	d.Comm.Send(dst, tagRebal, state)
	for _, out := range parts {
		for i := range out {
			ix, _, _ := d.G.Unvoxel(int(out[i].P.Voxel))
			out[i].P.Voxel = int32((ix-lo)*n) + WireVoxel(d.G, 0, int(out[i].P.Voxel))
		}
		d.countSend(tagRebal, len(out)*push.OutgoingWireBytes)
		d.Comm.Send(dst, tagRebal, out)
	}
}

// RecvRebalSlab receives a slab sent by SendRebalSlab whose planes
// start at local plane lo here: it returns the slab's field state and
// appends its particles, landed on their planes, to bufs (one per
// species, in species order). The particles are relocated, not moved:
// no current is deposited.
func (d *Domain) RecvRebalSlab(src, lo int, bufs []*particle.Buffer) []float32 {
	state := d.Comm.Recv(src, tagRebal).([]float32)
	n := int32(d.G.PlaneSize(0))
	for _, b := range bufs {
		for _, o := range d.Comm.Recv(src, tagRebal).(push.OutgoingBatch) {
			p := o.P
			p.Voxel = LandVoxel(d.G, 0, lo+int(p.Voxel/n), p.Voxel%n)
			b.Append(p)
		}
	}
	return state
}
