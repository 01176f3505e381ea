package domain

import (
	"sync"
	"testing"
	"time"

	"govpic/internal/accum"
	"govpic/internal/field"
	"govpic/internal/grid"
	"govpic/internal/interp"
	"govpic/internal/mp"
	"govpic/internal/particle"
	"govpic/internal/push"
	"govpic/internal/testnet"
	"govpic/internal/transport"
)

func periodicConfig(nRanks, gnx, gny, gnz int) Config {
	dec, err := grid.ChooseDecomp(nRanks, gnx, gny, gnz)
	if err != nil {
		panic(err)
	}
	return Config{
		Layout: grid.Uniform(dec), DX: 1, DY: 1, DZ: 1,
		ParticleBC: [6]push.Action{push.Wrap, push.Wrap, push.Wrap, push.Wrap, push.Wrap, push.Wrap},
	}
}

func TestNewValidatesWorldSize(t *testing.T) {
	cfg := periodicConfig(2, 8, 1, 1)
	mp.Run(3, func(c *mp.Comm) {
		if _, err := New(cfg, c); err == nil {
			t.Error("accepted mismatched world size")
		}
	})
}

func TestNewValidatesParticleBC(t *testing.T) {
	cfg := periodicConfig(2, 8, 1, 1)
	cfg.ParticleBC[0] = push.Reflect // periodic axis must Wrap
	mp.Run(2, func(c *mp.Comm) {
		if _, err := New(cfg, c); err == nil {
			t.Error("accepted Reflect on periodic axis")
		}
	})
}

func TestRemoteFlagsPeriodicX(t *testing.T) {
	cfg := periodicConfig(2, 8, 2, 2)
	mp.Run(2, func(c *mp.Comm) {
		d, err := New(cfg, c)
		if err != nil {
			t.Error(err)
			return
		}
		// Periodic decomposed x: both x faces remote on every rank.
		if !d.Remote(field.XLo) || !d.Remote(field.XHi) {
			t.Errorf("rank %d: x faces should be remote", c.Rank())
		}
		// y, z single-rank: local.
		if d.Remote(field.YLo) || d.Remote(field.ZHi) {
			t.Errorf("rank %d: y/z faces should be local", c.Rank())
		}
		acts := d.ParticleActions()
		if acts[field.XLo] != push.Migrate || acts[field.YLo] != push.Wrap {
			t.Errorf("rank %d: wrong particle actions %v", c.Rank(), acts)
		}
	})
}

func TestRemoteFlagsBoundedX(t *testing.T) {
	dec, _ := grid.ChooseDecomp(2, 8, 1, 1)
	cfg := Config{
		Layout: grid.Uniform(dec), DX: 1, DY: 1, DZ: 1,
		FieldBC: [6]field.BC{
			field.XLo: field.Absorbing, field.XHi: field.Absorbing,
			field.YLo: field.Periodic, field.YHi: field.Periodic,
			field.ZLo: field.Periodic, field.ZHi: field.Periodic,
		},
		ParticleBC: [6]push.Action{
			field.XLo: push.Absorb, field.XHi: push.Absorb,
			field.YLo: push.Wrap, field.YHi: push.Wrap,
			field.ZLo: push.Wrap, field.ZHi: push.Wrap,
		},
	}
	mp.Run(2, func(c *mp.Comm) {
		d, err := New(cfg, c)
		if err != nil {
			t.Error(err)
			return
		}
		switch c.Rank() {
		case 0:
			if d.Remote(field.XLo) {
				t.Error("rank 0 XLo must be a local wall")
			}
			if !d.Remote(field.XHi) {
				t.Error("rank 0 XHi must be remote")
			}
			if d.ParticleActions()[field.XLo] != push.Absorb {
				t.Error("rank 0 XLo action must be Absorb")
			}
		case 1:
			if !d.Remote(field.XLo) || d.Remote(field.XHi) {
				t.Error("rank 1 remote flags wrong")
			}
		}
	})
}

func TestExchangeGhostE(t *testing.T) {
	cfg := periodicConfig(2, 8, 2, 2)
	mp.Run(2, func(c *mp.Comm) {
		d, err := New(cfg, c)
		if err != nil {
			t.Error(err)
			return
		}
		g := d.G
		// Tag each rank's interior Ey with rank*1000 + ix.
		for iz := 0; iz <= g.NZ+1; iz++ {
			for iy := 0; iy <= g.NY+1; iy++ {
				for ix := 1; ix <= g.NX; ix++ {
					d.F.Ey[g.Voxel(ix, iy, iz)] = float32(1000*c.Rank() + ix)
				}
			}
		}
		d.F.UpdateGhostE()
		d.ExchangeGhostE()
		other := 1 - c.Rank()
		// Plane N+1 must hold the high neighbor's plane 1.
		got := d.F.Ey[g.Voxel(g.NX+1, 1, 1)]
		if want := float32(1000*other + 1); got != want {
			t.Errorf("rank %d plane N+1 = %g, want %g", c.Rank(), got, want)
		}
		// Ghost plane 0 must hold the low neighbor's plane N.
		got = d.F.Ey[g.Voxel(0, 1, 1)]
		if want := float32(1000*other + 4); got != want {
			t.Errorf("rank %d plane 0 = %g, want %g", c.Rank(), got, want)
		}
	})
}

func TestExchangeJFolds(t *testing.T) {
	cfg := periodicConfig(2, 8, 2, 2)
	mp.Run(2, func(c *mp.Comm) {
		d, err := New(cfg, c)
		if err != nil {
			t.Error(err)
			return
		}
		g := d.G
		// Both ranks deposit 1.0 on their shared high plane and 2.0 on
		// their own plane 1.
		d.F.Jx[g.Voxel(g.NX+1, 1, 1)] = 1
		d.F.Jx[g.Voxel(1, 1, 1)] = 2
		d.ExchangeJ()
		// Each plane 1 must now hold 2 + the neighbor's 1. Nothing is
		// mirrored back into plane N+1: no reader of J looks there.
		if got := d.F.Jx[g.Voxel(1, 1, 1)]; got != 3 {
			t.Errorf("rank %d folded J = %g, want 3", c.Rank(), got)
		}
	})
}

func TestExchangeNodeScalar(t *testing.T) {
	cfg := periodicConfig(2, 4, 2, 2)
	mp.Run(2, func(c *mp.Comm) {
		d, err := New(cfg, c)
		if err != nil {
			t.Error(err)
			return
		}
		g := d.G
		rho := make([]float32, g.NV())
		rho[g.Voxel(g.NX+1, 1, 1)] = 0.5
		rho[g.Voxel(1, 1, 1)] = 1
		d.ExchangeNodeScalar(rho)
		if got := rho[g.Voxel(1, 1, 1)]; got != 1.5 {
			t.Errorf("rank %d rho fold = %g, want 1.5", c.Rank(), got)
		}
	})
}

func TestParticleMigration(t *testing.T) {
	cfg := periodicConfig(2, 8, 2, 2)
	mp.Run(2, func(c *mp.Comm) {
		d, err := New(cfg, c)
		if err != nil {
			t.Error(err)
			return
		}
		g := d.G
		ip := interp.NewTable(g)
		ip.LoadPar(nil, d.F) // zero fields
		acc := accum.New(g)
		k := push.NewKernel(g, ip, acc, -1, 1, 0.4)
		k.Bound = d.ParticleActions()
		buf := particle.NewBuffer(0)
		if c.Rank() == 0 {
			// Fast particle at the high-x edge of rank 0's last cell.
			buf.Append(particle.Particle{Dx: 0.95, Voxel: int32(g.Voxel(g.NX, 1, 2)), Ux: 10, W: 1})
		}
		acc.Clear()
		k.AdvanceP(buf)
		d.BeginParticleExchange([]*push.Kernel{k}, []*particle.Buffer{buf}).Complete()
		switch c.Rank() {
		case 0:
			if buf.N() != 0 {
				t.Errorf("rank 0 still holds %d particles", buf.N())
			}
		case 1:
			if buf.N() != 1 {
				t.Errorf("rank 1 holds %d particles, want 1", buf.N())
				return
			}
			ix, iy, iz := g.Unvoxel(int(buf.Voxel(0)))
			if ix != 1 || iy != 1 || iz != 2 {
				t.Errorf("migrated particle at (%d,%d,%d), want (1,1,2)", ix, iy, iz)
			}
		}
	})
}

func TestParticleMigrationWrapsPeriodically(t *testing.T) {
	// A particle leaving the global high-x boundary must wrap to rank 0.
	cfg := periodicConfig(2, 8, 2, 2)
	mp.Run(2, func(c *mp.Comm) {
		d, err := New(cfg, c)
		if err != nil {
			t.Error(err)
			return
		}
		g := d.G
		ip := interp.NewTable(g)
		ip.LoadPar(nil, d.F)
		acc := accum.New(g)
		k := push.NewKernel(g, ip, acc, -1, 1, 0.4)
		k.Bound = d.ParticleActions()
		buf := particle.NewBuffer(0)
		if c.Rank() == 1 {
			buf.Append(particle.Particle{Dx: 0.95, Voxel: int32(g.Voxel(g.NX, 2, 1)), Ux: 10, W: 1})
		}
		acc.Clear()
		k.AdvanceP(buf)
		d.BeginParticleExchange([]*push.Kernel{k}, []*particle.Buffer{buf}).Complete()
		if c.Rank() == 0 && buf.N() != 1 {
			t.Errorf("rank 0 holds %d particles after wrap, want 1", buf.N())
		}
		if c.Rank() == 1 && buf.N() != 0 {
			t.Errorf("rank 1 still holds %d particles", buf.N())
		}
	})
}

func TestCornerMigrationSettles(t *testing.T) {
	// 2×2 decomposition; a particle crossing both x and y rank faces in
	// one step needs the multi-sweep exchange.
	cfg := periodicConfig(4, 8, 8, 1)
	mp.Run(4, func(c *mp.Comm) {
		d, err := New(cfg, c)
		if err != nil {
			t.Error(err)
			return
		}
		g := d.G
		ip := interp.NewTable(g)
		ip.LoadPar(nil, d.F)
		acc := accum.New(g)
		k := push.NewKernel(g, ip, acc, -1, 1, 0.45)
		k.Bound = d.ParticleActions()
		buf := particle.NewBuffer(0)
		if c.Rank() == 0 {
			buf.Append(particle.Particle{
				Dx: 0.99, Dy: 0.99,
				Voxel: int32(g.Voxel(g.NX, g.NY, 1)),
				Ux:    10, Uy: 10, W: 1,
			})
		}
		acc.Clear()
		k.AdvanceP(buf)
		d.BeginParticleExchange([]*push.Kernel{k}, []*particle.Buffer{buf}).Complete()
		total := c.AllreduceSumInt(int64(buf.N()))
		if total != 1 {
			t.Errorf("rank %d: global particle count %d, want 1", c.Rank(), total)
		}
		// The diagonal neighbor of rank 0 in a 2×2 grid is rank 3.
		if c.Rank() == 3 && buf.N() != 1 {
			t.Errorf("corner particle did not reach rank 3")
		}
	})
}

// TestOneAxisSettleIsLocal: on 2 ranks split along x, a migrant left
// over after landing can only mean a broken CFL bound, and the settle
// check runs no collective. Rank 1 holds such a migrant and panics with
// the settle message; rank 0 holds none, and its settle returns without
// sending or receiving a message. Rank 0 then goes on to the step's
// next exchange, the J fold, and fails with a *mp.PeerDeadError naming
// rank 1 instead of waiting for it: in-process, Run declares a panicked
// rank dead; over TCP, rank 1 closes its transport, as its process
// would by exiting.
func TestOneAxisSettleIsLocal(t *testing.T) {
	const want = "domain: particle exchange did not settle (dt beyond CFL?)"
	cfg := periodicConfig(2, 8, 3, 2)
	settleThenFold := func(c *mp.Comm) {
		d, err := New(cfg, c)
		if err != nil {
			t.Error(err)
			return
		}
		g := d.G
		k := push.NewKernel(g, interp.NewTable(g), accum.New(g), -1, 1, 0.45)
		k.Bound = d.ParticleActions()
		if c.Rank() == 1 {
			k.Out[field.XHi] = append(k.Out[field.XHi], push.Outgoing{P: particle.Particle{W: 1}})
		}
		x := &ParticleExchange{d: d, kernels: []*push.Kernel{k}, bufs: []*particle.Buffer{particle.NewBuffer(0)}}
		x.settleResidual()
		for _, l := range c.Stats().Snapshot() {
			if l.MsgsSent+l.MsgsRecv != 0 {
				t.Errorf("rank %d's settle check used its link to rank %d: %+v", c.Rank(), l.Peer, l)
			}
		}
		d.ExchangeJ()
	}
	// run runs both ranks through start, which returns what each rank
	// panicked with, and checks them.
	run := func(t *testing.T, start func() [2]any) {
		done := make(chan [2]any, 1)
		go func() { done <- start() }()
		select {
		case got := <-done:
			if got[1] != want {
				t.Errorf("rank 1's leftover migrant: the settle check panicked with %v, want %q", got[1], want)
			}
			if pd, ok := got[0].(*mp.PeerDeadError); !ok || pd.Rank != 0 || pd.Peer != 1 {
				t.Errorf("rank 0's J fold after its peer's panic: %v, want a *mp.PeerDeadError naming rank 1", got[0])
			}
		case <-time.After(20 * time.Second):
			t.Fatal("rank 1's lone panic hung rank 0")
		}
	}
	t.Run("in-process", func(t *testing.T) {
		run(t, func() (got [2]any) {
			defer func() { got[1] = recover() }() // Run re-raises rank 1's panic
			mp.Run(2, func(c *mp.Comm) {
				if c.Rank() == 0 {
					defer func() { got[0] = recover() }()
				}
				settleThenFold(c)
			})
			return got
		})
	})
	t.Run("TCP", func(t *testing.T) {
		ts := tcpWorld(t, 2)
		run(t, func() (got [2]any) {
			var wg sync.WaitGroup
			for r := range ts {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					defer func() {
						if got[r] = recover(); got[r] != nil && r == 1 {
							ts[r].Close()
						}
					}()
					settleThenFold(mp.NewComm(ts[r]))
				}(r)
			}
			wg.Wait()
			return got
		})
	})
}

// tcpWorld brings up an n-rank loopback TCP world; the endpoints close
// when the test ends.
func tcpWorld(t *testing.T, n int) []*transport.TCP {
	t.Helper()
	join := testnet.FreeAddr(t)
	ts := make([]*transport.TCP, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := range ts {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ts[r], errs[r] = transport.Connect(r, n, join, "127.0.0.1:0", transport.Options{})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ts[r].Close() })
	}
	return ts
}

func TestCommBytesCounted(t *testing.T) {
	cfg := periodicConfig(2, 8, 2, 2)
	mp.Run(2, func(c *mp.Comm) {
		d, err := New(cfg, c)
		if err != nil {
			t.Error(err)
			return
		}
		d.ExchangeGhostE()
		var sent int64
		for _, b := range d.ClassBytes {
			sent += b
		}
		if sent == 0 || d.ClassBytes[ClassGhostE] != sent {
			t.Errorf("sent bytes %d, ghostE class %d: the exchange was not counted under its class", sent, d.ClassBytes[ClassGhostE])
		}
	})
}
