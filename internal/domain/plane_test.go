package domain

import (
	"math"
	"slices"
	"testing"

	"govpic/internal/mp"
	"govpic/internal/particle"
	"govpic/internal/push"
	"govpic/internal/rng"
)

// TestRebalSlabRoundTrip sends a slab's field state (random floats,
// NaN payloads included) and one particle on each of its local x-planes
// [1, 3) from rank 0 to rank 1, which receives it on planes [2, 4): the
// state must arrive bit for bit, and each particle must land on its
// plane.
func TestRebalSlabRoundTrip(t *testing.T) {
	cfg := periodicConfig(2, 8, 3, 2)
	const lo, hi, to = 1, 3, 2
	mp.Run(2, func(c *mp.Comm) {
		d, err := New(cfg, c)
		if err != nil {
			t.Error(err)
			return
		}
		g := d.G
		r := rng.New(48, 0) // the same state on both ranks
		state := make([]float32, 100)
		for i := range state {
			if r.Intn(8) == 0 {
				state[i] = math.Float32frombits(uint32(r.Uint64())&0x807fffff | 0x7f800001)
			} else {
				state[i] = float32(r.Uniform(-1, 1))
			}
		}
		if c.Rank() == 0 {
			var out push.OutgoingBatch
			for ix := lo; ix < hi; ix++ {
				out = append(out, push.Outgoing{P: particle.Particle{Voxel: int32(g.Voxel(ix, 2, 1)), W: float32(ix)}})
			}
			d.SendRebalSlab(1, slices.Clone(state), lo, []push.OutgoingBatch{out})
			return
		}

		buf := particle.NewBuffer(0)
		got := d.RecvRebalSlab(0, to, []*particle.Buffer{buf})
		if len(got) != len(state) {
			t.Errorf("state %d floats, want %d", len(got), len(state))
			return
		}
		for i := range state {
			if math.Float32bits(got[i]) != math.Float32bits(state[i]) {
				t.Errorf("state[%d] = %x, sent %x", i, math.Float32bits(got[i]), math.Float32bits(state[i]))
				return
			}
		}
		if buf.N() != hi-lo {
			t.Errorf("%d particles landed, want %d", buf.N(), hi-lo)
			return
		}
		for i := 0; i < buf.N(); i++ {
			p := buf.At(i)
			if want := int32(g.Voxel(to+int(p.W)-lo, 2, 1)); p.Voxel != want {
				t.Errorf("particle from plane %g landed at voxel %d, want %d", p.W, p.Voxel, want)
			}
		}
	})
}
