package mp

import (
	"testing"
	"time"
)

func TestSendIRecvRoundTrip(t *testing.T) {
	const n = 40
	Run(2, func(c *Comm) {
		other := 1 - c.Rank()
		for i := 0; i < n; i++ {
			c.Send(other, i, []int{c.Rank(), i})
		}
		recvs := make([]*Request, n)
		for i := 0; i < n; i++ {
			recvs[i] = c.IRecv(other, i)
		}
		for i, r := range recvs {
			data, err := r.Wait()
			if err != nil {
				t.Errorf("rank %d recv %d: %v", c.Rank(), i, err)
				return
			}
			got := data.([]int)
			if got[0] != other || got[1] != i {
				t.Errorf("rank %d recv %d: payload %v", c.Rank(), i, got)
			}
		}
	})
}

// TestIRecvWaitOutOfOrder waits the last of three posted receives first:
// the engine must execute the earlier ones in posted order on the way,
// and their own Wait calls must return the cached results.
func TestIRecvWaitOutOfOrder(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 3; i++ {
				c.Send(1, i, 10+i)
			}
			return
		}
		r0 := c.IRecv(0, 0)
		r1 := c.IRecv(0, 1)
		r2 := c.IRecv(0, 2)
		if v, err := r2.Wait(); err != nil || v.(int) != 12 {
			t.Errorf("last recv: %v, %v", v, err)
		}
		if v, err := r0.Wait(); err != nil || v.(int) != 10 {
			t.Errorf("first recv: %v, %v", v, err)
		}
		if v, err := r1.Wait(); err != nil || v.(int) != 11 {
			t.Errorf("middle recv: %v, %v", v, err)
		}
		// Wait is idempotent.
		if v, _ := r1.Wait(); v.(int) != 11 {
			t.Error("repeated Wait lost the cached payload")
		}
	})
}

// TestCollectiveFlushesQueuedSends sends messages and immediately
// enters a barrier: every message must reach the link before the
// barrier's own, so rank 0 receives them all and then the barrier. A
// barrier that overtook them would fail rank 0 with a tag mismatch and
// leave rank 1 waiting for its release, so the world has a deadline.
func TestCollectiveFlushesQueuedSends(t *testing.T) {
	const n = 32
	done := make(chan struct{})
	go func() {
		defer close(done)
		Run(2, func(c *Comm) {
			if c.Rank() == 1 {
				for i := 0; i < n; i++ {
					c.Send(0, i, i)
				}
				c.Barrier()
				return
			}
			for i := 0; i < n; i++ {
				if got := c.Recv(1, i).(int); got != i {
					t.Errorf("message %d: got %d", i, got)
				}
			}
			c.Barrier()
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the world did not finish its barrier")
	}
}

// TestWaitAccountsOverlap checks the wait/overlap bookkeeping: a receive
// posted well before its Wait must bank the posted-to-wait span as
// overlapped flight, and TakeOverlap must drain exactly once.
func TestWaitAccountsOverlap(t *testing.T) {
	const sleep = 20 * time.Millisecond
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, 1)
			return
		}
		r := c.IRecv(0, 0)
		time.Sleep(sleep) // "compute" while the message is in flight
		if _, err := r.Wait(); err != nil {
			t.Error(err)
			return
		}
		st := c.Stats()
		w, o := st.TakeOverlap()
		if o < sleep/2 || w < 0 {
			t.Errorf("TakeOverlap = (%v, %v)", w, o)
		}
		if w2, o2 := st.TakeOverlap(); w2 != 0 || o2 != 0 {
			t.Errorf("second TakeOverlap not drained: (%v, %v)", w2, o2)
		}
	})
}

// TestUnwaitedRecvBeforeCollectivePanics: entering a collective with a
// posted-but-unwaited receive is a protocol bug the engine must catch.
func TestUnwaitedRecvBeforeCollectivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("barrier with pending receive did not panic")
		}
	}()
	// Single-rank world: the panic must come from the engine's assertion,
	// before the transport barrier runs (a multi-rank world would deadlock
	// the non-panicking rank inside the barrier).
	Run(1, func(c *Comm) {
		c.IRecv(0, 0)
		c.Barrier()
	})
}

func TestSendRecvRingViaRequests(t *testing.T) {
	const n = 8
	Run(n, func(c *Comm) {
		right := (c.Rank() + 1) % n
		left := (c.Rank() + n - 1) % n
		// Several rounds so request state from one round cannot leak into
		// the next.
		for round := 0; round < 20; round++ {
			got := sendRecv(c, right, left, round, c.Rank()).(int)
			if got != left {
				t.Errorf("round %d: rank %d received %d, want %d", round, c.Rank(), got, left)
			}
		}
	})
}
