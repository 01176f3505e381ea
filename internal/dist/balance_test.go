package dist

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"govpic/internal/balance"
	"govpic/internal/core"
	"govpic/internal/deck"
)

// TestLPIBalancesEndToEnd: the paper's deck balances. The LPI deck at
// ppc 16 on 4 ranks, balanced online (interval 2, threshold 1.1), with
// absorbing walls and again with reflux walls:
//   - moves its x-cuts off uniform by step 50;
//   - leaves the same CRCs in process and over TCP after 100 steps;
//   - keeps every sampled energy within 1e-5 relative of the static
//     run's. The layouts sum in other orders, so the bits differ; both
//     decks measured 7.6e-8. A pump or seed antenna lost or misplaced by
//     a reshape misses this by orders of magnitude: a pump that stops at
//     the first reshape is off by 3e-4 in B's energy at step 10. (The
//     plasma reaches no wall in 100 steps; for the balanced reflux walls
//     see TestBalancedRefluxWallsHoldParticles.)
//   - resumes a checkpoint written at step 50, on the moved cuts, to the
//     uninterrupted run's CRCs and history: in process, from a TCP world
//     and on a TCP world.
func TestLPIBalancesEndToEnd(t *testing.T) {
	for _, reflux := range []bool{false, true} {
		t.Run(fmt.Sprintf("reflux=%v", reflux), func(t *testing.T) {
			spec := deck.JSONConfig{Deck: "lpi", A0: 0.02, PPC: 16, Ranks: 4, Workers: 1, Steps: 100, RefluxWalls: reflux}
			static, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			spec.Balance, spec.BalanceInterval, spec.BalanceThreshold = "online", 2, 1.1
			dk, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			tcp := func(job Job) *Result {
				results, errs := runTCPDeck(t, dk, 4, job)
				for r, err := range errs {
					if err != nil {
						t.Fatalf("TCP rank %d: %v", r, err)
					}
				}
				return results[0]
			}
			full := runMembers(t, dk, Job{Steps: 100, Every: 10})
			off := runMembers(t, static, Job{Steps: 100, Every: 10})
			if got := tcp(Job{Steps: 100, Every: 10}); !slices.Equal(got.CRCs, full.CRCs) {
				t.Errorf("CRCs %08x over TCP, %08x in process", got.CRCs, full.CRCs)
			}
			for i, s := range full.History.Samples {
				o := off.History.Samples[i]
				got := append([]float64{s.Total, s.EField, s.BField}, s.Kinetic...)
				for j, want := range append([]float64{o.Total, o.EField, o.BField}, o.Kinetic...) {
					if !(math.Abs(got[j]-want) <= 1e-5*math.Abs(want)) {
						t.Errorf("step %d: balanced energies %+v, static %+v", s.Step, s, o)
						break
					}
				}
			}

			dir := t.TempDir()
			inProcess, fromTCP := filepath.Join(dir, "local.ckpt"), filepath.Join(dir, "tcp.ckpt")
			half := runMembers(t, dk, Job{Steps: 50, Every: 10, Checkpoint: inProcess})
			if slices.Equal(half.CutsX, off.CutsX) {
				t.Fatalf("the balancer never moved the cuts by step 50: %v", half.CutsX)
			}
			tcp(Job{Steps: 50, Every: 10, Checkpoint: fromTCP})
			for name, res := range map[string]*Result{
				"in process":          runMembers(t, dk, Job{Steps: 50, Every: 10, Restore: inProcess}),
				"TCP → in process":    runMembers(t, dk, Job{Steps: 50, Every: 10, Restore: fromTCP}),
				"in process → on TCP": tcp(Job{Steps: 50, Every: 10, Restore: inProcess}),
			} {
				if !slices.Equal(res.CRCs, full.CRCs) || !reflect.DeepEqual(res.History, full.History) {
					t.Errorf("resumed %s: CRCs %08x, uninterrupted %08x (or the histories differ)", name, res.CRCs, full.CRCs)
				}
			}
		})
	}
}

// TestBalancedRefluxWallsHoldParticles: a reshape keeps a rank's
// refluxing walls. wallDeck's plasma reaches its walls, and on 4 ranks
// balanced online (interval 2, threshold 1.1) its x-cuts move; its
// reflux walls must still hold every particle after 200 steps, where
// absorbing walls lose some (TestRefluxWallsResumeExactly).
func TestBalancedRefluxWallsHoldParticles(t *testing.T) {
	dk := wallDeck(t, 4, 1)
	dk.Cfg.Balance = core.BalanceConfig{Mode: balance.Online, Interval: 2, Threshold: 1.1}
	var start, end int
	res := runMembers(t, dk, Job{Steps: 200, AfterStep: func(rs *core.RankSim) bool {
		n := rs.TotalParticles() // a collective
		switch {
		case rs.Comm().Rank() != 0:
		case rs.StepCount() == 1:
			start = n
		case rs.StepCount() == 200:
			end = n
		}
		return false
	}})
	if uniform := []int{0, 13, 26, 39, 52}; slices.Equal(res.CutsX, uniform) {
		t.Fatalf("the balancer never moved the cuts: %v", res.CutsX)
	}
	if end != start {
		t.Errorf("%d particles at step 200, %d at step 1 (cuts %v)", end, start, res.CutsX)
	}
}
