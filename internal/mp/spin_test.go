package mp

import (
	"runtime"
	"testing"
	"time"
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
