package loader_test

import (
	"fmt"
	"testing"

	"govpic/internal/deck"
	"govpic/internal/grid"
	"govpic/internal/loader"
	"govpic/internal/particle"
	"govpic/internal/pipe"
)

// BenchmarkLoad times one fresh load of a one-rank deck's electrons,
// the set-up cost per particle: the thermal.1rank tile (256×4×4,
// ppc 64, uniform) and the lpi.srs tile (ppc 512, a slab with ramps),
// each at 1 and 2 workers.
func BenchmarkLoad(b *testing.B) {
	lpi := deck.DefaultLPI(0.07)
	lpi.PPC = 512
	lpiDeck, err := deck.LPI(lpi)
	if err != nil {
		b.Fatal(err)
	}
	decks := []struct {
		name string
		dk   deck.Deck
	}{
		{"thermal.1rank", deck.Thermal(256, 4, 4, 64, 1, 0.2, 0.05)},
		{"lpi.srs", lpiDeck},
	}
	for _, d := range decks {
		cfg := d.dk.Cfg
		g := grid.MustNew(cfg.NX, cfg.NY, cfg.NZ, cfg.DX, cfg.DY, cfg.DZ)
		gl := loader.Global{NX: cfg.NX, NY: cfg.NY, NZ: cfg.NZ}
		p := *cfg.Species[0].Load
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/W=%d", d.name, w), func(b *testing.B) {
				pool := pipe.New(w)
				b.ReportAllocs()
				n := 0
				for i := 0; i < b.N; i++ {
					n, err = loader.Load(g, gl, p, pool, particle.NewBuffer(0))
					if err != nil {
						b.Fatal(err)
					}
				}
				b.SetBytes(int64(n) * particle.ParticleBytes)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/particle")
			})
		}
	}
}
