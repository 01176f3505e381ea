package domain

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"govpic/internal/accum"
	"govpic/internal/field"
	"govpic/internal/grid"
	"govpic/internal/interp"
	"govpic/internal/mp"
	"govpic/internal/particle"
	"govpic/internal/push"
	"govpic/internal/rng"
)

// The blocking exchange bodies: each exchange in its synchronous form —
// blocking sends, then blocking receives applied in the same fixed order
// the posted bodies complete theirs in. They are the per-exchange oracle
// TestExchangesMatchBlockingOracle holds production to, bitwise.

// send packs the given plane of each array into one payload and sends it
// blocking.
func (d *Domain) send(dst, tag int, arrs [][]float32, axis, idx int) {
	buf := make([]float32, 0, d.G.PlaneSize(axis)*len(arrs))
	forPlane(d.G, axis, idx, func(v int) {
		for _, a := range arrs {
			buf = append(buf, a[v])
		}
	})
	d.countSend(tag, 4*len(buf))
	d.Comm.Send(dst, tag, buf)
}

// recvInto overwrites the given plane from a packed payload.
func (d *Domain) recvInto(src, tag int, arrs [][]float32, axis, idx int) {
	buf := d.Comm.Recv(src, tag).([]float32)
	i := 0
	forPlane(d.G, axis, idx, func(v int) {
		for _, a := range arrs {
			a[v] = buf[i]
			i++
		}
	})
}

// addFrom accumulates a packed payload into the given plane.
func (d *Domain) addFrom(src, tag int, arrs [][]float32, axis, idx int) {
	buf := d.Comm.Recv(src, tag).([]float32)
	i := 0
	forPlane(d.G, axis, idx, func(v int) {
		for _, a := range arrs {
			a[v] += buf[i]
			i++
		}
	})
}

// forPlane visits every voxel of the constant-index plane normal to
// axis, covering the full ghost-inclusive extent of the other two axes,
// in the wire order: the per-element form of packPlane's row walk.
func forPlane(g *grid.Grid, axis, idx int, fn func(v int)) {
	sx, sy, sz := g.Strides()
	switch axis {
	case 0:
		for iz := 0; iz < sz; iz++ {
			for iy := 0; iy < sy; iy++ {
				fn(idx + sx*(iy+sy*iz))
			}
		}
	case 1:
		for iz := 0; iz < sz; iz++ {
			for ix := 0; ix < sx; ix++ {
				fn(ix + sx*(idx+sy*iz))
			}
		}
	default:
		for iy := 0; iy < sy; iy++ {
			for ix := 0; ix < sx; ix++ {
				fn(ix + sx*(iy+sy*idx))
			}
		}
	}
}

// blockingExchangeGhost is the two-sided fills' oracle, in the per-axis
// order that predates the shift: both sends, then both receives.
func (d *Domain) blockingExchangeGhost(arrs [][]float32, tagBase int) {
	n := [3]int{d.G.NX, d.G.NY, d.G.NZ}
	for axis := 0; axis < 3; axis++ {
		lo, hi := field.Face(2*axis), field.Face(2*axis+1)
		if d.remote[lo] {
			d.send(d.nbr[lo], tagBase+int(lo), arrs, axis, 1)
		}
		if d.remote[hi] {
			d.send(d.nbr[hi], tagBase+int(hi), arrs, axis, n[axis])
		}
		if d.remote[hi] {
			d.recvInto(d.nbr[hi], tagBase+int(lo), arrs, axis, n[axis]+1)
		}
		if d.remote[lo] {
			d.recvInto(d.nbr[lo], tagBase+int(hi), arrs, axis, 0)
		}
	}
}

// blockingFill is a one-sided fill's oracle: it writes side s's ghost
// planes and leaves the other side as it was.
func (d *Domain) blockingFill(arrs [][]float32, tagBase int, s Side) {
	n := [3]int{d.G.NX, d.G.NY, d.G.NZ}
	for axis := 0; axis < 3; axis++ {
		lo, hi := field.Face(2*axis), field.Face(2*axis+1)
		if s == High {
			if d.remote[lo] {
				d.send(d.nbr[lo], tagBase+int(lo), arrs, axis, 1)
			}
			if d.remote[hi] {
				d.recvInto(d.nbr[hi], tagBase+int(lo), arrs, axis, n[axis]+1)
			}
			continue
		}
		if d.remote[hi] {
			d.send(d.nbr[hi], tagBase+int(hi), arrs, axis, n[axis])
		}
		if d.remote[lo] {
			d.recvInto(d.nbr[lo], tagBase+int(hi), arrs, axis, 0)
		}
	}
}

// blockingFoldUp is the fold's oracle.
func (d *Domain) blockingFoldUp(arrs [][]float32, tagBase int) {
	n := [3]int{d.G.NX, d.G.NY, d.G.NZ}
	for axis := 0; axis < 3; axis++ {
		lo, hi := field.Face(2*axis), field.Face(2*axis+1)
		if d.remote[hi] {
			d.send(d.nbr[hi], tagBase+int(hi), arrs, axis, n[axis]+1)
		}
		if d.remote[lo] {
			d.addFrom(d.nbr[lo], tagBase+int(hi), arrs, axis, 1)
		}
	}
}

// blockingExchangeParticles is the particle exchange's oracle: snapshot
// every remote face's outgoing list in the (axis, species, lo, hi)
// order, send them all, receive and land in the same order, then run
// the settle sweeps.
func (d *Domain) blockingExchangeParticles(kernels []*push.Kernel, bufs []*particle.Buffer) {
	n := [3]int{d.G.NX, d.G.NY, d.G.NZ}
	type batch struct {
		dst, tag int
		out      push.OutgoingBatch
	}
	var sends []batch
	for axis := 0; axis < 3; axis++ {
		for s, k := range kernels {
			for _, f := range []field.Face{field.Face(2 * axis), field.Face(2*axis + 1)} {
				if !d.remote[f] {
					continue
				}
				out := push.OutgoingBatch(append([]push.Outgoing(nil), k.Out[f]...))
				k.Out[f] = k.Out[f][:0]
				for i := range out {
					out[i].P.Voxel = WireVoxel(d.G, axis, int(out[i].P.Voxel))
				}
				d.countSend(tagPart, len(out)*push.OutgoingWireBytes)
				sends = append(sends, batch{d.nbr[f], tagPart + 16*s + int(f), out})
			}
		}
	}
	for _, b := range sends {
		d.Comm.Send(b.dst, b.tag, b.out)
	}
	for axis := 0; axis < 3; axis++ {
		lo, hi := field.Face(2*axis), field.Face(2*axis+1)
		for s, k := range kernels {
			if d.remote[hi] {
				in := d.Comm.Recv(d.nbr[hi], tagPart+16*s+int(lo)).(push.OutgoingBatch)
				d.landParticles(k, bufs[s], in, axis, n[axis])
			}
			if d.remote[lo] {
				in := d.Comm.Recv(d.nbr[lo], tagPart+16*s+int(hi)).(push.OutgoingBatch)
				d.landParticles(k, bufs[s], in, axis, 1)
			}
		}
	}
	d.growParticlePlans(len(kernels)) // the settle sweeps run on the plans
	(&ParticleExchange{d: d, kernels: kernels, bufs: bufs}).settleResidual()
}

// oracleRank is one rank's exchange inputs: random field components,
// two random scalars, and two species of random particles (plus a
// corner crosser on rank 0) pushed one step on zero fields.
type oracleRank struct {
	d       *Domain
	rhoS    []float32 // ExchangeNodeScalar's array
	errS    []float32 // ExchangeScalarGhost's array
	acc     *accum.Array
	kernels []*push.Kernel
	bufs    []*particle.Buffer
}

func newOracleRank(t *testing.T, cfg Config, c *mp.Comm) *oracleRank {
	d, err := New(cfg, c)
	if err != nil {
		t.Error(err)
		return nil
	}
	g := d.G
	src := rng.New(0x0dac1e, c.Rank())
	r := &oracleRank{d: d, rhoS: make([]float32, g.NV()), errS: make([]float32, g.NV()), acc: accum.New(g)}
	f := d.F
	for _, a := range [][]float32{f.Ex, f.Ey, f.Ez, f.Bx, f.By, f.Bz, f.Jx, f.Jy, f.Jz, r.rhoS, r.errS} {
		for v := range a {
			a[v] = float32(src.Uniform(-1, 1))
		}
	}
	ip := interp.NewTable(g) // zero fields: ballistic pushes
	for s, q := range []float64{-1, 1} {
		k := push.NewKernel(g, ip, r.acc, q, float64(1+24*s), 0.45)
		k.Bound = d.ParticleActions()
		buf := particle.NewBuffer(0)
		for i := 0; i < 300; i++ {
			buf.Append(particle.Particle{
				Dx: float32(src.Uniform(-1, 1)), Dy: float32(src.Uniform(-1, 1)), Dz: float32(src.Uniform(-1, 1)),
				Voxel: int32(g.Voxel(1+src.Intn(g.NX), 1+src.Intn(g.NY), 1+src.Intn(g.NZ))),
				Ux:    float32(src.Uniform(-8, 8)), Uy: float32(src.Uniform(-8, 8)), Uz: float32(src.Uniform(-8, 8)),
				W: float32(src.Uniform(0.5, 1.5)),
			})
		}
		if c.Rank() == 0 {
			// Crosses the high face of every axis in one step.
			buf.Append(particle.Particle{
				Dx: 0.99, Dy: 0.99, Dz: 0.99, Voxel: int32(g.Voxel(g.NX, g.NY, g.NZ)),
				Ux: 10, Uy: 10, Uz: 10, W: 1,
			})
		}
		r.kernels = append(r.kernels, k)
		r.bufs = append(r.bufs, buf)
	}
	r.push()
	return r
}

// push moves every species one ballistic step, filling the Out lists.
func (r *oracleRank) push() {
	r.acc.Clear()
	for s, k := range r.kernels {
		k.AdvanceP(r.bufs[s])
	}
}

// perturb starts round round of the stage list on fresh inputs: new
// random values in every array and one more push. A plan slot reused
// on fresh data shows whether the peer still read the old contents.
func (r *oracleRank) perturb(round int) {
	src := rng.New(0x0dac1e+uint64(round), r.d.Rank)
	f := r.d.F
	for _, a := range [][]float32{f.Ex, f.Ey, f.Ez, f.Bx, f.By, f.Bz, f.Jx, f.Jy, f.Jz, r.rhoS, r.errS} {
		for v := range a {
			a[v] = float32(src.Uniform(-1, 1))
		}
	}
	r.push()
}

// record appends a labelled little-endian image of v — the exact bits of
// every float — to st.
func record(st map[string][]byte, label string, v any) {
	var b bytes.Buffer
	if err := binary.Write(&b, binary.LittleEndian, v); err != nil {
		panic(err)
	}
	st[label] = b.Bytes()
}

// snapshot images everything an exchange may write: every array, the
// particles, the accumulator, the Out lists and the traffic counters.
func (r *oracleRank) snapshot() map[string][]byte {
	st := map[string][]byte{}
	f := r.d.F
	for name, a := range map[string][]float32{
		"Ex": f.Ex, "Ey": f.Ey, "Ez": f.Ez, "Bx": f.Bx, "By": f.By, "Bz": f.Bz,
		"Jx": f.Jx, "Jy": f.Jy, "Jz": f.Jz, "rho": r.rhoS, "err": r.errS,
	} {
		record(st, name, a)
	}
	record(st, "acc", r.acc.A)
	for s, k := range r.kernels {
		ps := make([]particle.Particle, r.bufs[s].N())
		for i := range ps {
			ps[i] = r.bufs[s].At(i)
		}
		record(st, fmt.Sprintf("species %d particles", s), ps)
		for face, out := range k.Out {
			record(st, fmt.Sprintf("species %d Out[%d]", s, face), out)
		}
	}
	record(st, "ClassBytes", r.d.ClassBytes[:])
	record(st, "ClassMsgs", r.d.ClassMsgs[:])
	return st
}

// exchangeStage is one exchange in its production and oracle forms.
type exchangeStage struct {
	name             string
	production, sync func(r *oracleRank)
}

var exchangeStages = []exchangeStage{
	{"ExchangeGhostE",
		func(r *oracleRank) { r.d.ExchangeGhostE() },
		func(r *oracleRank) { f := r.d.F; r.d.blockingExchangeGhost([][]float32{f.Ex, f.Ey, f.Ez}, tagGhostE) }},
	{"ExchangeGhostB",
		func(r *oracleRank) { r.d.ExchangeGhostB() },
		func(r *oracleRank) { f := r.d.F; r.d.blockingExchangeGhost([][]float32{f.Bx, f.By, f.Bz}, tagGhostB) }},
	{"ExchangeJ",
		func(r *oracleRank) { r.d.ExchangeJ() },
		func(r *oracleRank) { f := r.d.F; r.d.blockingFoldUp([][]float32{f.Jx, f.Jy, f.Jz}, tagFoldJ) }},
	// The step's one-sided fills, in step order.
	{"FillGhostB low",
		func(r *oracleRank) { r.d.FillGhostB(Low) },
		func(r *oracleRank) { f := r.d.F; r.d.blockingFill([][]float32{f.Bx, f.By, f.Bz}, tagGhostB, Low) }},
	{"FillGhostE high",
		func(r *oracleRank) { r.d.FillGhostE(High) },
		func(r *oracleRank) { f := r.d.F; r.d.blockingFill([][]float32{f.Ex, f.Ey, f.Ez}, tagGhostE, High) }},
	{"FillGhostB high",
		func(r *oracleRank) { r.d.FillGhostB(High) },
		func(r *oracleRank) { f := r.d.F; r.d.blockingFill([][]float32{f.Bx, f.By, f.Bz}, tagGhostB, High) }},
	{"ExchangeNodeScalar",
		func(r *oracleRank) { r.d.ExchangeNodeScalar(r.rhoS) },
		func(r *oracleRank) { r.d.blockingFoldUp([][]float32{r.rhoS}, tagFoldS) }},
	{"ExchangeScalarGhost",
		func(r *oracleRank) { r.d.ExchangeScalarGhost(r.errS) },
		func(r *oracleRank) { r.d.blockingExchangeGhost([][]float32{r.errS}, tagGhostS) }},
	{"particle exchange",
		func(r *oracleRank) { r.d.BeginParticleExchange(r.kernels, r.bufs).Complete() },
		func(r *oracleRank) { r.d.blockingExchangeParticles(r.kernels, r.bufs) }},
}

// oracleRounds is how many times each world runs the stage list: every
// plan slot (two per face) is reused at least twice.
const oracleRounds = 3

// TestExchangesMatchBlockingOracle holds every production exchange to
// its blocking oracle, bitwise, on random fields and particles: each
// world runs the stage list oracleRounds times, on fresh random inputs
// each round, once through the posted bodies and once through the
// oracles, and after every stage each rank's arrays, particles,
// accumulator, Out lists and traffic counters must be identical — so a
// one-sided fill must also leave its other side as the oracle does,
// untouched. The worlds cover both neighbors on one link (2 ranks
// periodic in x), a ring whose low and high neighbors differ (3 ranks
// periodic in x, where a one-way shift reuses a slot with no receive
// from the peer it sent to),
// corner crossers that need settle rounds (2×2×1 periodic) and walls (2
// ranks with absorbing x walls).
func TestExchangesMatchBlockingOracle(t *testing.T) {
	walls := periodicConfig(2, 8, 3, 2) // the zero field BC is Periodic
	walls.FieldBC[field.XLo], walls.FieldBC[field.XHi] = field.Absorbing, field.Absorbing
	walls.ParticleBC[field.XLo], walls.ParticleBC[field.XHi] = push.Absorb, push.Absorb
	for _, w := range []struct {
		name    string
		cfg     Config
		dec     [3]int
		settles bool // the corner crosser needs a settle round
	}{
		{"2 ranks periodic x", periodicConfig(2, 8, 3, 2), [3]int{2, 1, 1}, false},
		{"3 ranks periodic x ring", periodicConfig(3, 12, 3, 2), [3]int{3, 1, 1}, false},
		{"4 ranks 2x2x1 periodic", periodicConfig(4, 8, 8, 2), [3]int{2, 2, 1}, true},
		{"2 ranks x walls", walls, [3]int{2, 1, 1}, false},
	} {
		t.Run(w.name, func(t *testing.T) {
			if dec := w.cfg.Layout.Dec; [3]int{dec.PX, dec.PY, dec.PZ} != w.dec {
				t.Fatalf("decomposition %+v, want %v", dec, w.dec)
			}
			nr := w.cfg.Layout.Dec.NRanks()
			// partMsgs/mainMsgs: particle messages the production
			// particle stages sent, and what the main exchanges send.
			partMsgs, mainMsgs := make([]int64, nr), make([]int64, nr)
			run := func(production bool) [][]map[string][]byte {
				states := make([][]map[string][]byte, nr)
				mp.Run(nr, func(c *mp.Comm) {
					r := newOracleRank(t, w.cfg, c)
					if r == nil {
						return
					}
					for round := 0; round < oracleRounds; round++ {
						if round > 0 {
							r.perturb(round)
						}
						for _, st := range exchangeStages {
							before := r.d.ClassMsgs[ClassParticles]
							if production {
								st.production(r)
							} else {
								st.sync(r)
							}
							states[c.Rank()] = append(states[c.Rank()], r.snapshot())
							if production {
								partMsgs[c.Rank()] += r.d.ClassMsgs[ClassParticles] - before
							}
						}
						for f := field.Face(0); f < field.NumFaces && production; f++ {
							if r.d.Remote(f) {
								mainMsgs[c.Rank()] += int64(len(r.kernels))
							}
						}
					}
				})
				return states
			}
			got, want := run(true), run(false)
			stages := oracleRounds * len(exchangeStages)
			for rank := range got {
				if len(got[rank]) != stages || len(want[rank]) != stages {
					t.Fatalf("rank %d ran %d/%d of %d stages", rank, len(got[rank]), len(want[rank]), stages)
				}
				for i := range got[rank] {
					st := exchangeStages[i%len(exchangeStages)]
					for label, b := range want[rank][i] {
						if !bytes.Equal(got[rank][i][label], b) {
							t.Errorf("rank %d, round %d, after %s: %s differs from the blocking oracle",
								rank, i/len(exchangeStages), st.name, label)
						}
					}
				}
				// Settle rounds are collective, so on 2×2×1 every rank
				// sends more particle messages than the main exchanges.
				if w.settles && partMsgs[rank] <= mainMsgs[rank] {
					t.Errorf("rank %d sent %d particle messages, the main exchanges' %d: no settle round ran",
						rank, partMsgs[rank], mainMsgs[rank])
				}
			}
		})
	}
}
