package transport

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"govpic/internal/mp"
)

// TestTCPPipelinedVolumeNoDeadlock pins the bound that head-to-head
// sends live within: both ranks send before either receives, and Send
// runs on the rank's own goroutine. A full replay window (replayCap
// messages each way) drains, since every send finds room; a rank that
// keeps sending past the window while its peer does the same parks in
// Send and fails with a typed *mp.LinkOverflowError once the send
// timeout (a reconnect window plus PeerTimeout, 1.5 s under fastOpts)
// passes, instead of hanging. The in-process world bounds a link at
// mp.LinkDepth, a quarter of the window, so no protocol that runs there
// reaches this bound.
func TestTCPPipelinedVolumeNoDeadlock(t *testing.T) {
	if testing.Short() {
		t.Skip("bulk TCP exchange")
	}
	t.Run("window", func(t *testing.T) {
		ts := connectWorld(t, 2, fastOpts())
		headToHead(t, func(rank int) error {
			c := mp.NewComm(ts[rank])
			other := 1 - rank
			for i := 0; i < replayCap; i++ {
				c.Send(other, i, []float64{float64(rank), float64(i)})
			}
			for i := 0; i < replayCap; i++ {
				data, err := c.Transport().Recv(other, i)
				if err != nil {
					return fmt.Errorf("rank %d recv %d: %w", rank, i, err)
				}
				if v := data.([]float64); int(v[0]) != other || int(v[1]) != i {
					return fmt.Errorf("rank %d recv %d: payload %v", rank, i, v)
				}
			}
			// A shift exchange after the bulk: the window has drained.
			c.Send(other, replayCap, int64(rank))
			if got := c.Recv(other, replayCap); got.(int64) != int64(other) {
				return fmt.Errorf("rank %d shift exchange: got %v", rank, got)
			}
			return nil
		})
	})
	t.Run("past-window", func(t *testing.T) {
		ts := connectWorld(t, 2, fastOpts())
		headToHead(t, func(rank int) error {
			for i := 0; i < 2*replayCap; i++ {
				err := ts[rank].Send(1-rank, 0, int64(i))
				if err == nil {
					continue
				}
				var lo *mp.LinkOverflowError
				if !errors.As(err, &lo) || lo.Src != rank || lo.Dst != 1-rank {
					return fmt.Errorf("rank %d send %d: %v, want a *mp.LinkOverflowError from %d to %d", rank, i, err, rank, 1-rank)
				}
				if i < replayCap {
					return fmt.Errorf("rank %d send %d overflowed inside the window of %d", rank, i, replayCap)
				}
				t.Logf("rank %d: send %d overflowed", rank, i)
				return nil
			}
			return fmt.Errorf("rank %d sent %d messages head-to-head without an overflow", rank, 2*replayCap)
		})
	})
}

// headToHead runs rank on both ranks at once and fails the test on
// either's error or panic, or if they have not both returned within
// 60 s.
func headToHead(t *testing.T, rank func(rank int) error) {
	t.Helper()
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func(r int) {
			defer func() {
				if p := recover(); p != nil {
					errs <- fmt.Errorf("rank %d: %v", r, p)
				}
			}()
			errs <- rank(r)
		}(r)
	}
	deadline := time.After(60 * time.Second)
	for r := 0; r < 2; r++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("head-to-head sends deadlocked")
		}
	}
}
