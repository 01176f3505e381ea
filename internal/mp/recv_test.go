package mp_test

import (
	"sync"
	"testing"
	"time"

	"govpic/internal/mp"
	"govpic/internal/testnet"
	"govpic/internal/transport"
)

// TestRecvAccountsBlockedTime checks Recv's clock policy on both
// transports: the clock is read only around a receive that blocks, so
// a receive whose message is already queued adds zero wait, one whose
// peer sleeps 2 ms before sending adds at least 2 ms, and so does an
// AllreduceSum whose root sleeps before entering it.
func TestRecvAccountsBlockedTime(t *testing.T) {
	t.Run("in-process", func(t *testing.T) {
		w := mp.NewWorld(2)
		checkBlockedWait(t, w.Comm(0), w.Comm(1))
	})
	t.Run("TCP", func(t *testing.T) {
		cs := tcpComms(t, 2)
		checkBlockedWait(t, cs[0], cs[1])
	})
}

// tcpComms brings up an n-rank loopback TCP world and returns its
// Comms in rank order; the endpoints close when the test ends.
func tcpComms(t *testing.T, n int) []*mp.Comm {
	t.Helper()
	join := testnet.FreeAddr(t)
	ts := make([]*transport.TCP, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := range ts {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ts[r], errs[r] = transport.Connect(r, n, join, "127.0.0.1:0", transport.Options{})
		}(r)
	}
	wg.Wait()
	cs := make([]*mp.Comm, n)
	for r, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ts[r].Close() })
		cs[r] = mp.NewComm(ts[r])
	}
	return cs
}

// checkBlockedWait runs the three receives on c1, with c0 as the peer
// and the collectives' root. The peer sleeps only once it has a go
// message, and c1 receives right after sending it.
func checkBlockedWait(t *testing.T, c0, c1 *mp.Comm) {
	const sleep = 2 * time.Millisecond
	const tagQueued, tagGo, tagLate = 1, 2, 3
	done := make(chan struct{})
	go func() {
		defer close(done)
		c0.Send(1, tagQueued, 1.0)
		c0.Recv(1, tagGo)
		time.Sleep(sleep)
		c0.Send(1, tagLate, 2.0)
		c0.Recv(1, tagGo)
		time.Sleep(sleep)
		c0.AllreduceSum(1)
	}()
	st := c1.Stats()
	st.TakeWait()

	for !c1.Transport().Ready(0) {
		time.Sleep(50 * time.Microsecond)
	}
	c1.Recv(0, tagQueued)
	if wait := st.TakeWait(); wait != 0 {
		t.Errorf("a receive already queued added %v of wait, want 0", wait)
	}

	c1.Send(0, tagGo, 0.0)
	c1.Recv(0, tagLate)
	if wait := st.TakeWait(); wait < sleep {
		t.Errorf("a receive whose peer slept %v added %v of wait", sleep, wait)
	}

	c1.Send(0, tagGo, 0.0)
	if sum := c1.AllreduceSum(1); sum != 2 {
		t.Errorf("AllreduceSum = %g, want 2", sum)
	}
	if wait := st.TakeWait(); wait < sleep {
		t.Errorf("an AllreduceSum whose root slept %v added %v of wait", sleep, wait)
	}
	<-done
}
