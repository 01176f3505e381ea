package transport

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"govpic/internal/mp"
)

// window is the head-to-head volume a TCP link absorbs: window
// messages each way, sent before either rank receives, must drain. It
// is four times the in-process bound mp.LinkDepth, so no protocol that
// runs in-process comes near it.
const window = 4 * mp.LinkDepth

// TestTCPPipelinedVolumeNoDeadlock pins the bound that head-to-head
// sends live within: both ranks send before either receives, and Send
// runs on the rank's own goroutine. A window of messages each way
// drains, held by the send and receive queues and the sockets. A rank
// that keeps sending while its peer does the same fills all of them:
// its writer blocks, its write deadline expires, and the link is dead.
// Each rank's parked Send then fails with an attributed
// *mp.PeerDeadError within one PeerTimeout, instead of hanging.
func TestTCPPipelinedVolumeNoDeadlock(t *testing.T) {
	if testing.Short() {
		t.Skip("bulk TCP exchange")
	}
	t.Run("window", func(t *testing.T) {
		ts := connectWorld(t, 2, fastOpts())
		headToHead(t, func(rank int) error {
			c := mp.NewComm(ts[rank])
			other := 1 - rank
			for i := 0; i < window; i++ {
				c.Send(other, i, []float64{float64(rank), float64(i)})
			}
			for i := 0; i < window; i++ {
				data, err := c.Transport().Recv(other, i)
				if err != nil {
					return fmt.Errorf("rank %d recv %d: %w", rank, i, err)
				}
				if v := data.([]float64); int(v[0]) != other || int(v[1]) != i {
					return fmt.Errorf("rank %d recv %d: payload %v", rank, i, v)
				}
			}
			// A shift exchange after the bulk: the window has drained.
			c.Send(other, window, int64(rank))
			if got := c.Recv(other, window); got.(int64) != int64(other) {
				return fmt.Errorf("rank %d shift exchange: got %v", rank, got)
			}
			return nil
		})
	})
	t.Run("past-window", func(t *testing.T) {
		opts := fastOpts()
		const slack = 250 * time.Millisecond
		ts := connectWorld(t, 2, opts)
		payload := make([]float64, 128) // 1 KiB: the sockets fill in milliseconds
		headToHead(t, func(rank int) error {
			for i := 0; i < 1<<20; i++ {
				start := time.Now()
				err := ts[rank].Send(1-rank, 0, payload)
				if err == nil {
					continue
				}
				parked := time.Since(start)
				var pd *mp.PeerDeadError
				if !errors.As(err, &pd) || pd.Rank != rank || pd.Peer != 1-rank {
					return fmt.Errorf("rank %d send %d: %v, want a *mp.PeerDeadError from %d naming %d", rank, i, err, rank, 1-rank)
				}
				if i < window {
					return fmt.Errorf("rank %d send %d failed inside the window of %d", rank, i, window)
				}
				if parked > opts.PeerTimeout+slack {
					return fmt.Errorf("rank %d send %d parked %v, want within %v + %v", rank, i, parked, opts.PeerTimeout, slack)
				}
				t.Logf("rank %d: send %d failed after %v parked: %v", rank, i, parked, pd.Cause)
				return nil
			}
			return fmt.Errorf("rank %d sent head-to-head without end", rank)
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
