package domain

import (
	"testing"

	"govpic/internal/field"
	"govpic/internal/mp"
	"govpic/internal/push"
)

// TestExchangeAllocs is the steady-state allocation budget of every
// exchange class, one subtest per class so a regression names its
// exchange: on two in-process ranks (periodic x, both neighbors on one
// link) a warmed-up exchange allocates nothing. The particle exchange
// carries the same non-empty batches every run, lands them, runs its
// settle check and trims the buffers back, so its slots are reused at
// full size. The corner subtest runs it on a 2×2 periodic world, where
// rank 0's corner crosser lands across one axis and re-crosses the
// other, so every run settles through a sweep on the particle plans.
func TestExchangeAllocs(t *testing.T) {
	for _, st := range exchangeStages {
		t.Run(st.name, func(t *testing.T) {
			exchange := func(r *oracleRank) func() { return func() { st.production(r) } }
			if st.name == "particle exchange" {
				exchange = (*oracleRank).steadyParticleExchange
			}
			checkNoAllocs(t, st.name, periodicConfig(2, 8, 3, 2), exchange)
		})
	}
	t.Run("corner settle", func(t *testing.T) {
		checkNoAllocs(t, "the settled corner exchange", periodicConfig(4, 8, 8, 1), (*oracleRank).steadyParticleExchange)
	})
}

// checkNoAllocs fails t unless the exchange that mk binds to each rank
// of cfg's world allocates nothing once warmed up. testing.AllocsPerRun
// counts every goroutine's objects, so the peer ranks' allocations
// count too.
func checkNoAllocs(t *testing.T, name string, cfg Config, mk func(*oracleRank) func()) {
	const runs = 50
	ranks := cfg.Layout.Dec.NRanks()
	var got float64
	mp.Run(ranks, func(c *mp.Comm) {
		r := newOracleRank(t, cfg, c)
		if r == nil {
			return
		}
		exchange := mk(r)
		for i := 0; i < 4; i++ { // past the first slot growth
			exchange()
		}
		c.Barrier()
		if c.Rank() == 0 {
			got = testing.AllocsPerRun(runs, exchange)
			return
		}
		for i := 0; i <= runs; i++ { // AllocsPerRun adds one warm-up call
			exchange()
		}
	})
	if got != 0 {
		t.Errorf("%s allocates %.2f objects per exchange on %d ranks, the budget 0", name, got, ranks)
	}
}

// steadyParticleExchange returns a particle exchange that repeats the
// rank's current outgoing lists every call: it restores them, exchanges,
// and drops the arrivals again, so every call moves the same batches.
func (r *oracleRank) steadyParticleExchange() func() {
	out := make([][field.NumFaces][]push.Outgoing, len(r.kernels))
	n := make([]int, len(r.bufs))
	for s, k := range r.kernels {
		for f := range k.Out {
			out[s][f] = append([]push.Outgoing(nil), k.Out[f]...)
		}
		n[s] = r.bufs[s].N()
	}
	return func() {
		for s, k := range r.kernels {
			for f := range k.Out {
				k.Out[f] = append(k.Out[f][:0], out[s][f]...)
			}
		}
		r.d.BeginParticleExchange(r.kernels, r.bufs).Complete()
		for s, b := range r.bufs {
			for b.N() > n[s] {
				b.RemoveSwap(b.N() - 1)
			}
		}
	}
}
