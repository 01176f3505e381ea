package mp

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestPointToPoint(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []int{1, 2, 3})
		} else {
			got := c.Recv(0, 7).([]int)
			if len(got) != 3 || got[2] != 3 {
				t.Errorf("bad payload %v", got)
			}
		}
	})
}

func TestMessagesInOrder(t *testing.T) {
	Run(2, func(c *Comm) {
		const n = 50
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, i, i)
			}
		} else {
			for i := 0; i < n; i++ {
				if got := c.Recv(0, i).(int); got != i {
					t.Errorf("message %d out of order: %d", i, got)
				}
			}
		}
	})
}

func TestTagMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("tag mismatch did not panic")
		}
	}()
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, nil)
		} else {
			c.Recv(0, 2)
		}
	})
}

// sendRecv is the shift exchange: it sends data to dst and receives
// from src, both with tag.
func sendRecv(c *Comm, dst, src, tag int, data any) any {
	c.Send(dst, tag, data)
	return c.Recv(src, tag)
}

// TestSendRecvRoundTrip: every send runs before the peer receives
// anything, and each receive returns its own message.
func TestSendRecvRoundTrip(t *testing.T) {
	const n = 40
	Run(2, func(c *Comm) {
		other := 1 - c.Rank()
		for i := 0; i < n; i++ {
			c.Send(other, i, []int{c.Rank(), i})
		}
		for i := 0; i < n; i++ {
			data, err := c.Transport().Recv(other, i)
			if err != nil {
				t.Errorf("rank %d recv %d: %v", c.Rank(), i, err)
				return
			}
			if got := data.([]int); got[0] != other || got[1] != i {
				t.Errorf("rank %d recv %d: payload %v", c.Rank(), i, got)
			}
		}
	})
}

func TestSendRecvRingViaRequests(t *testing.T) {
	const n = 8
	Run(n, func(c *Comm) {
		right := (c.Rank() + 1) % n
		left := (c.Rank() + n - 1) % n
		// Several rounds over the same links, so a message of one round
		// cannot be taken for the next.
		for round := 0; round < 20; round++ {
			got := sendRecv(c, right, left, round, c.Rank()).(int)
			if got != left {
				t.Errorf("round %d: rank %d received %d, want %d", round, c.Rank(), got, left)
			}
		}
	})
}

func TestRingSendRecv(t *testing.T) {
	const n = 8
	Run(n, func(c *Comm) {
		right := (c.Rank() + 1) % n
		left := (c.Rank() + n - 1) % n
		if got := sendRecv(c, right, left, 0, c.Rank()).(int); got != left {
			t.Errorf("rank %d received %d, want %d", c.Rank(), got, left)
		}
	})
}

func TestBarrierOrdering(t *testing.T) {
	const n = 6
	var before, after int64
	Run(n, func(c *Comm) {
		atomic.AddInt64(&before, 1)
		c.Barrier()
		if atomic.LoadInt64(&before) != n {
			t.Errorf("rank %d passed barrier before all entered", c.Rank())
		}
		atomic.AddInt64(&after, 1)
		c.Barrier()
		if atomic.LoadInt64(&after) != n {
			t.Errorf("rank %d passed second barrier early", c.Rank())
		}
	})
}

func TestBarrierReusable(t *testing.T) {
	Run(4, func(c *Comm) {
		for i := 0; i < 100; i++ {
			c.Barrier()
		}
	})
}

// TestCollectiveSharesLinks: a collective runs over the point-to-point
// links, so it cannot overtake a message sent before it. Rank 1 enters
// the barrier with rank 0's tagged message still unread; the barrier's
// receive finds that message at the head of the link and fails with
// the typed mismatch, on this world as over TCP.
func TestCollectiveSharesLinks(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 3, int64(1))
			c.Barrier()
			return
		}
		defer func() {
			if _, ok := recover().(*TagMismatchError); !ok {
				t.Error("a barrier over an unread message did not fail with *TagMismatchError")
			}
		}()
		c.Barrier()
		c.Recv(0, 3)
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

func TestAllreduceSum(t *testing.T) {
	const n = 5
	Run(n, func(c *Comm) {
		got := c.AllreduceSum(float64(c.Rank() + 1))
		if got != 15 {
			t.Errorf("rank %d: sum = %g, want 15", c.Rank(), got)
		}
	})
}

func TestAllreduceMax(t *testing.T) {
	Run(7, func(c *Comm) {
		got := c.AllreduceMax(float64(c.Rank() * c.Rank()))
		if got != 36 {
			t.Errorf("max = %g, want 36", got)
		}
	})
}

func TestAllreduceSumF64s(t *testing.T) {
	Run(4, func(c *Comm) {
		in := []float64{float64(c.Rank()), 1, float64(c.Rank() * 10)}
		got := c.AllreduceSumF64s(in)
		want := []float64{6, 4, 60}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("rank %d: sum[%d] = %g, want %g", c.Rank(), i, got[i], want[i])
			}
		}
		// Each rank must own its result: a write here must not be
		// visible to other ranks' copies.
		got[0] = float64(-c.Rank())
		again := c.AllreduceSumF64s(in)
		if again[0] != 6 {
			t.Errorf("rank %d: result aliased across ranks: %g", c.Rank(), again[0])
		}
	})
}

func TestAllreduceSumInt(t *testing.T) {
	Run(4, func(c *Comm) {
		if got := c.AllreduceSumInt(int64(c.Rank())); got != 6 {
			t.Errorf("int sum = %d, want 6", got)
		}
	})
}

func TestAllreduceRepeated(t *testing.T) {
	Run(3, func(c *Comm) {
		for i := 1; i <= 50; i++ {
			want := float64(3 * i)
			if got := c.AllreduceSum(float64(i)); got != want {
				t.Errorf("round %d: %g, want %g", i, got, want)
				return
			}
		}
	})
}

func TestSingleRankWorld(t *testing.T) {
	Run(1, func(c *Comm) {
		c.Barrier()
		if got := c.AllreduceSum(3.5); got != 3.5 {
			t.Errorf("self allreduce = %g", got)
		}
		// A rank never messages itself.
		if err := c.Transport().Send(0, 0, "x"); err == nil {
			t.Error("a send to the own rank succeeded")
		}
		if _, err := c.Transport().Recv(0, 0); err == nil {
			t.Error("a receive from the own rank succeeded")
		}
	})
}

// TestCollectivesKeepNoPayload: rank 0's collective slots hold nothing
// once a collective returns, and Gather's slice is not one of them, so
// no gathered payload outlives the call that consumed it.
func TestCollectivesKeepNoPayload(t *testing.T) {
	Run(3, func(c *Comm) {
		got := c.Gather(1, []byte{byte(c.Rank())})
		c.AllreduceSumF64s([]float64{1})
		if c.Rank() != 0 {
			return
		}
		for r, v := range c.slots {
			if v != nil {
				t.Errorf("slot %d holds %v after the collective", r, v)
			}
		}
		if len(got) != 3 || &got[0] == &c.slots[0] {
			t.Error("Gather returned rank 0's collective slots")
		}
	})
}

func TestWorldValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) did not panic")
		}
	}()
	NewWorld(0)
}

func TestCommRankValidation(t *testing.T) {
	w := NewWorld(2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range rank did not panic")
		}
	}()
	w.Comm(2)
}

func TestTagMismatchTypedError(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, nil)
			return
		}
		_, err := c.Transport().Recv(0, 6)
		tm, ok := err.(*TagMismatchError)
		if !ok {
			t.Fatalf("got %T (%v), want *TagMismatchError", err, err)
		}
		if tm.Rank != 1 || tm.Src != 0 || tm.Want != 6 || tm.Got != 5 {
			t.Errorf("wrong attribution: %+v", tm)
		}
		if _, ok := AsCommError(any(tm)); !ok {
			t.Error("TagMismatchError is not a CommError")
		}
	})
}

func TestLinkOverflowTypedError(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() != 0 {
			return // never drain: force the bound on link 0->1
		}
		for i := 0; i < LinkDepth; i++ {
			if err := c.Transport().Send(1, 0, i); err != nil {
				t.Fatalf("send %d within depth failed: %v", i, err)
			}
		}
		err := c.Transport().Send(1, 0, LinkDepth)
		lo, ok := err.(*LinkOverflowError)
		if !ok {
			t.Fatalf("got %T (%v), want *LinkOverflowError", err, err)
		}
		if lo.Src != 0 || lo.Dst != 1 || lo.Depth != LinkDepth {
			t.Errorf("wrong attribution: %+v", lo)
		}
		if _, ok := AsCommError(any(lo)); !ok {
			t.Error("LinkOverflowError is not a CommError")
		}
	})
}

func TestLinkOverflowPanicsTyped(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("overflowing Send did not panic")
		}
		if _, ok := AsCommError(p); !ok {
			t.Fatalf("panic value %T is not a CommError", p)
		}
	}()
	Run(2, func(c *Comm) {
		if c.Rank() != 0 {
			return
		}
		for i := 0; i <= LinkDepth; i++ {
			c.Send(1, 0, i)
		}
	})
}

// TestLonePanicFreesPeers: a rank that panics under Run is a dead peer
// to the rest. Rank 1 of 3 sends one message and panics; rank 2 still
// receives that message, and then it and rank 0, each waiting for a
// message rank 1 never sends, fail with a *PeerDeadError naming rank 1.
// Run re-raises rank 1's panic instead of hanging.
func TestLonePanicFreesPeers(t *testing.T) {
	ran := make(chan any, 1)
	go func() {
		defer func() { ran <- recover() }()
		Run(3, func(c *Comm) {
			if c.Rank() == 1 {
				c.Send(2, 5, "sent before the panic")
				panic("rank 1 fails")
			}
			if c.Rank() == 2 {
				if got := c.Recv(1, 5); got != "sent before the panic" {
					t.Errorf("rank 2 received %v from rank 1", got)
				}
			}
			defer func() {
				p := recover()
				if pd, ok := p.(*PeerDeadError); !ok || pd.Rank != c.Rank() || pd.Peer != 1 {
					t.Errorf("rank %d: a receive from a panicked rank failed with %v, want a *PeerDeadError naming rank 1", c.Rank(), p)
				}
			}()
			c.Recv(1, 6)
		})
	}()
	select {
	case p := <-ran:
		if p != "rank 1 fails" {
			t.Errorf("Run re-raised %v, want rank 1's panic", p)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a lone panicking rank hung its peers")
	}
}
