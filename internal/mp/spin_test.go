package mp

import (
	"runtime"
	"testing"
	"time"

	"govpic/internal/wait"
)

// TestOversubscribedWorldFinishes: a 4-rank World whose ranks share one
// processor. A spinning receive yields between looks, so 1 000 rounds
// of a collective and a ring exchange run to the end within a generous
// bound.
func TestOversubscribedWorldFinishes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, rounds = 4, 1000
	w := NewWorld(n)
	done := make(chan float64, n)
	for r := 0; r < n; r++ {
		go func(c *Comm) {
			var sum float64
			for i := 0; i < rounds; i++ {
				sum += c.AllreduceSum(1)
				c.Send((c.Rank()+1)%n, 1, c.Rank())
				sum += float64(c.Recv((c.Rank()+n-1)%n, 1).(int))
			}
			done <- sum
		}(w.Comm(r))
	}
	timeout := time.After(60 * time.Second)
	for r := 0; r < n; r++ {
		select {
		case sum := <-done:
			if sum < rounds*n {
				t.Errorf("a rank summed %g over %d rounds, want at least %d", sum, rounds, rounds*n)
			}
		case <-timeout:
			t.Fatalf("an oversubscribed %d-rank world did not finish %d rounds in 60 s", n, rounds)
		}
	}
}

// TestWorldRecvAllocs: a ping-pong on a 2-rank World (each reply is
// sent after its ping arrives, so the pinging rank's receive finds its
// link empty and spins) allocates nothing, on either rank.
func TestWorldRecvAllocs(t *testing.T) {
	const runs = 200
	w := NewWorld(2)
	c0, c1 := w.Comm(0), w.Comm(1)
	var msg any = new(int) // boxed once: a send allocates nothing
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < runs+2; i++ { // AllocsPerRun adds one warm-up call
			c1.Send(0, 2, c1.Recv(0, 1))
		}
	}()
	pingPong := func() {
		c0.Send(1, 1, msg)
		c0.Recv(1, 2)
	}
	pingPong() // the links' counters are made on first use
	if got := testing.AllocsPerRun(runs, pingPong); got != 0 {
		t.Errorf("a spinning ping-pong allocates %.2f objects per round trip, the budget 0", got)
	}
	<-done
}

// TestRecvCountsExpiredWindows: a World receive counts on its link each
// wait.Window that runs out before its message arrives. One whose
// message is already queued counts none; one whose peer sends 3 ×
// Window after the receive starts counts exactly one. The peer also
// waits (boundedly) for the count, so a receiver the host deschedules
// past the window cannot find the message at its next look.
func TestRecvCountsExpiredWindows(t *testing.T) {
	const tagQueued, tagGo, tagLate = 1, 2, 3
	w := NewWorld(2)
	c0, c1 := w.Comm(0), w.Comm(1)
	expired := func() int64 { return c1.Stats().Link(0).Snapshot().SpinsExpired }
	done := make(chan struct{})
	go func() {
		defer close(done)
		c0.Send(1, tagQueued, 1.0)
		c0.Recv(1, tagGo)
		time.Sleep(3 * wait.Window)
		for deadline := time.Now().Add(2 * time.Second); expired() == 0 && time.Now().Before(deadline); {
			time.Sleep(50 * time.Microsecond)
		}
		c0.Send(1, tagLate, 2.0)
	}()

	for !c1.Transport().Ready(0) {
		time.Sleep(50 * time.Microsecond)
	}
	c1.Recv(0, tagQueued)
	if got := expired(); got != 0 {
		t.Errorf("a receive already queued counted %d expired windows, want 0", got)
	}

	c1.Send(0, tagGo, 0.0)
	c1.Recv(0, tagLate)
	if got := expired(); got != 1 {
		t.Errorf("a receive whose peer sent after %v counted %d expired windows, want 1", 3*wait.Window, got)
	}
	<-done
}
