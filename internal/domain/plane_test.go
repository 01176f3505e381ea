package domain

import (
	"math"
	"testing"

	"govpic/internal/mp"
	"govpic/internal/particle"
	"govpic/internal/push"
	"govpic/internal/rng"
)

// TestRebalSlabRoundTrip sends x-planes [1, 3) of two random arrays
// (NaN payloads included) and one particle per plane from rank 0 to
// rank 1, twice. The first payload is read raw and must equal the
// per-element forPlane packing — the wire order — and the second goes
// through RecvRebalSlab into planes [2, 4), which must equal the
// forPlane copy of the sent planes bit for bit, with each particle
// landed on its plane.
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
		r := rng.New(48, 0) // the same arrays on both ranks
		arrs := [][]float32{make([]float32, g.NV()), make([]float32, g.NV())}
		for _, a := range arrs {
			for v := range a {
				if r.Intn(8) == 0 {
					a[v] = math.Float32frombits(uint32(r.Uint64())&0x807fffff | 0x7f800001)
				} else {
					a[v] = float32(r.Uniform(-1, 1))
				}
			}
		}
		batch := func() []push.OutgoingBatch {
			var out push.OutgoingBatch
			for ix := lo; ix < hi; ix++ {
				out = append(out, push.Outgoing{P: particle.Particle{Voxel: int32(g.Voxel(ix, 2, 1)), W: float32(ix)}})
			}
			return []push.OutgoingBatch{out}
		}
		if c.Rank() == 0 {
			for round := 0; round < 2; round++ {
				d.SendRebalSlab(1, arrs, lo, hi, batch())
			}
			return
		}

		var wire []float32
		for ix := lo; ix < hi; ix++ {
			forPlane(g, 0, ix, func(v int) {
				for _, a := range arrs {
					wire = append(wire, a[v])
				}
			})
		}
		got := c.Recv(0, tagRebal).([]float32)
		c.Recv(0, tagRebal) // the particle batch
		if len(got) != len(wire) {
			t.Errorf("payload %d floats, want %d", len(got), len(wire))
			return
		}
		for i := range wire {
			if math.Float32bits(got[i]) != math.Float32bits(wire[i]) {
				t.Errorf("payload[%d] = %x, per-element packing %x", i, math.Float32bits(got[i]), math.Float32bits(wire[i]))
				return
			}
		}

		dst := [][]float32{make([]float32, g.NV()), make([]float32, g.NV())}
		buf := particle.NewBuffer(0)
		d.RecvRebalSlab(0, dst, to, to+hi-lo, []*particle.Buffer{buf})
		for ix := lo; ix < hi; ix++ {
			var from, into []int
			forPlane(g, 0, ix, func(v int) { from = append(from, v) })
			forPlane(g, 0, to+ix-lo, func(v int) { into = append(into, v) })
			for k := range from {
				for i := range arrs {
					if math.Float32bits(dst[i][into[k]]) != math.Float32bits(arrs[i][from[k]]) {
						t.Errorf("plane %d voxel %d array %d: %x, sent %x", to+ix-lo, into[k], i,
							math.Float32bits(dst[i][into[k]]), math.Float32bits(arrs[i][from[k]]))
						return
					}
				}
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
