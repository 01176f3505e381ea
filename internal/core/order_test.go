package core_test

import (
	"fmt"
	"testing"

	"govpic/internal/deck"
	"govpic/internal/field"
	"govpic/internal/push"
)

// hotAbsorbDeck is an unsorted hot thermal plasma whose x-low face
// absorbs and x-high face reflects: nearly every pipeline block holds a
// third-face mover or a wall mover near its top, so the slow movers sit
// between fast ones throughout each block's list.
func hotAbsorbDeck(workers int, kernel string) (deck.Deck, error) {
	d := deck.Thermal(16, 4, 4, 32, 1, 0.2, 0.5)
	d.Cfg.Species[0].SortInterval = 0
	d.Cfg.FieldBC[field.XLo], d.Cfg.FieldBC[field.XHi] = field.Absorbing, field.Absorbing
	d.Cfg.ParticleBC[field.XLo], d.Cfg.ParticleBC[field.XHi] = push.Absorb, push.Reflect
	d.Cfg.Workers, d.Cfg.Kernel = workers, kernel
	return d, nil
}

// refluxLPIDeck is the reflux-wall LPI deck on one rank: an antenna,
// thermally re-emitting x walls and Marder cleaning.
func refluxLPIDeck(workers int, kernel string) (deck.Deck, error) {
	return deck.JSONConfig{Deck: "lpi", A0: 0.05, RefluxWalls: true, PPC: 16, Steps: 20, Workers: workers, Kernel: kernel}.Build()
}

// TestMoverOrderPinned pins the final state CRC of two decks whose
// slow movers lie among fast ones (the hot deck's absorbed, reflected
// and third-face movers; the LPI deck's plasma reaches no wall in 20
// steps, so none of its movers is re-emitted), at one worker and at
// several: the pipelined mover finish
// must keep every accumulator's order of adds, whatever share of the
// movers each pool task finishes itself. The expected values were
// generated with the code before pool tasks finished any mover, when
// FinishBlocks finished every mover serially, and re-pinned when J left
// the serialized state (format v5, EXPERIMENTS S69) and when the ghost
// planes did (format v6, S71); each deck has one value for every worker
// count and kernel.
func TestMoverOrderPinned(t *testing.T) {
	for _, tc := range []struct {
		name    string
		build   func(workers int, kernel string) (deck.Deck, error)
		steps   int
		workers []int
		crc     uint32
	}{
		{"lpi-reflux", refluxLPIDeck, 20, []int{1, 2, 8}, 0xcdcfd040},
		{"thermal-hot-absorb", hotAbsorbDeck, 20, []int{1, 3}, 0x2b45505c},
	} {
		for _, w := range tc.workers {
			for _, kernel := range []string{push.KernelAuto, push.KernelGo} {
				if kernel == push.KernelGo && w == 1 {
					continue
				}
				t.Run(fmt.Sprintf("%s/W=%d/%s", tc.name, w, kernel), func(t *testing.T) {
					d, err := tc.build(w, kernel)
					if err != nil {
						t.Fatal(err)
					}
					s, err := d.New()
					if err != nil {
						t.Fatal(err)
					}
					s.Run(tc.steps)
					if got := s.StateCRCs()[0]; got != tc.crc {
						t.Errorf("state CRC %08x, want %08x", got, tc.crc)
					}
				})
			}
		}
	}
}
