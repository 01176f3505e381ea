package domain

import (
	"govpic/internal/field"
	"govpic/internal/push"
)

// plan is one grid exchange class's persistent schedule on this domain,
// in the spirit of MPI's persistent requests (the package doc says why
// two slots per face suffice).
type plan struct {
	tag   int // the class's tag base
	faces [field.NumFaces]planFace
}

// planFace is one remote face's share of a plan's sends.
type planFace struct {
	slot [2][]float32 // packed planes, used alternately
	msg  [2]any       // slot i boxed once, so a send allocates nothing
	next int          // the slot the next send packs
}

// newPlan builds the plan of the class whose messages carry width
// arrays under tag. A face's send carries tag+face and its receive
// tag+opposite face (shift): the peer sent through the face that
// faces this one.
func (d *Domain) newPlan(tag, width int) plan {
	p := plan{tag: tag}
	for f := field.Face(0); f < field.NumFaces; f++ {
		if !d.remote[f] {
			continue
		}
		pf := &p.faces[f]
		for i := range pf.slot {
			pf.slot[i] = make([]float32, d.G.PlaneSize(f.Axis())*width)
			pf.msg[i] = pf.slot[i]
		}
	}
	return p
}

// post packs plane idx normal to f's axis of every array into face f's
// next slot, counts the message and sends it.
func (d *Domain) post(p *plan, f field.Face, arrs [][]float32, idx int) {
	pf := &p.faces[f]
	i := pf.next
	pf.next ^= 1
	packPlane(pf.slot[i], d.G, arrs, f.Axis(), idx)
	d.countSend(p.tag, 4*len(pf.slot[i]))
	d.Comm.Send(d.nbr[f], p.tag+int(f), pf.msg[i])
}

// partPlan is one species' particle plan: per remote face, two batch
// slots, sent as a pointer to the slot (the batch length changes every
// step).
type partPlan [field.NumFaces]partFace

type partFace struct {
	slot [2]push.OutgoingBatch
	next int
}

// growParticlePlans builds the particle plans of n species unless they
// exist: the domain learns the species count from the first exchange.
func (d *Domain) growParticlePlans(n int) {
	if len(d.parts) != n {
		d.parts = make([]partPlan, n)
	}
}

// postParticles moves kernel k's outgoing list on face f into the
// face's next slot and clears the list, rewrites the batch's voxels to
// the transverse wire encoding of f's axis, counts the message and
// sends it under species s's tag.
func (d *Domain) postParticles(pf *partFace, k *push.Kernel, f field.Face, s int) {
	i := pf.next
	pf.next ^= 1
	out := append(pf.slot[i][:0], k.Out[f]...)
	k.Out[f] = k.Out[f][:0]
	for j := range out {
		out[j].P.Voxel = WireVoxel(d.G, f.Axis(), int(out[j].P.Voxel))
	}
	pf.slot[i] = out
	d.countSend(tagPart, len(out)*push.OutgoingWireBytes)
	d.Comm.Send(d.nbr[f], tagPart+16*s+int(f), &pf.slot[i])
}
