package transport

import (
	"fmt"
	"testing"
	"time"

	"govpic/internal/mp"
)

// TestTCPPipelinedVolumeNoDeadlock is the regression test for the
// classic head-to-head send deadlock: both ranks push more messages than
// the link's unacknowledged-replay window (replayCap) before either
// starts receiving. A blocking send-then-recv protocol wedges here —
// each side's Send stalls in backpressure waiting for acks only the
// other side's (never-reached) Recv loop would free. Routed through the
// request engine, posting never blocks the rank, so both sides reach
// their receive loops and the exchange drains.
func TestTCPPipelinedVolumeNoDeadlock(t *testing.T) {
	if testing.Short() {
		t.Skip("bulk TCP exchange")
	}
	const n = replayCap + 50
	ts := connectWorld(t, 2, fastOpts())
	errs := make(chan error, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ch := make(chan error, 2)
		for r := 0; r < 2; r++ {
			go func(rank int) {
				c := mp.NewComm(ts[rank])
				other := 1 - rank
				sends := make([]*mp.Request, n)
				for i := 0; i < n; i++ {
					sends[i] = c.ISend(other, i, []float64{float64(rank), float64(i)})
				}
				for i := 0; i < n; i++ {
					data, err := c.IRecv(other, i).Wait()
					if err != nil {
						ch <- fmt.Errorf("rank %d recv %d: %w", rank, i, err)
						return
					}
					v := data.([]float64)
					if int(v[0]) != other || int(v[1]) != i {
						ch <- fmt.Errorf("rank %d recv %d: payload %v", rank, i, v)
						return
					}
				}
				// A shift exchange must survive while the send queue still
				// holds backlog (TCP delivers in order, so its receive
				// necessarily follows the bulk messages).
				s := c.ISend(other, n, int64(rank))
				got, err := c.IRecv(other, n).Wait()
				if err != nil || got.(int64) != int64(other) {
					ch <- fmt.Errorf("rank %d shift exchange under backlog: got %v, %v", rank, got, err)
					return
				}
				if _, err := s.Wait(); err != nil {
					ch <- fmt.Errorf("rank %d shift exchange send: %w", rank, err)
					return
				}
				for i, s := range sends {
					if _, err := s.Wait(); err != nil {
						ch <- fmt.Errorf("rank %d send %d: %w", rank, i, err)
						return
					}
				}
				ch <- nil
			}(r)
		}
		for r := 0; r < 2; r++ {
			errs <- <-ch
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("head-to-head exchange beyond the replay window deadlocked")
	}
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
