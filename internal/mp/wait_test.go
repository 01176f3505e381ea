package mp_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"govpic/internal/mp"
	"govpic/internal/transport"
)

// TestWaitAccountsBlockedTime checks the request engine's clock policy
// on both transports: Wait reads the clock only around a receive that
// actually blocks, so a receive whose message is already queued adds
// zero wait, and one whose peer sleeps 2 ms before sending adds at
// least 2 ms.
func TestWaitAccountsBlockedTime(t *testing.T) {
	t.Run("in-process", func(t *testing.T) {
		w := mp.NewWorld(2)
		checkBlockedWait(t, w.Comm(0), w.Comm(1))
	})
	t.Run("TCP", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		join := ln.Addr().String()
		ln.Close()
		ts := make([]*transport.TCP, 2)
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for r := range ts {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				ts[r], errs[r] = transport.Connect(r, 2, join, "127.0.0.1:0", transport.Options{RendezvousTimeout: 20 * time.Second})
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
			defer ts[r].Close()
		}
		checkBlockedWait(t, mp.NewComm(ts[0]), mp.NewComm(ts[1]))
	})
}

// checkBlockedWait runs the two receives on c1, with c0 as the peer.
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
	}()
	st := c1.Stats()
	st.TakeOverlap()

	r := c1.IRecv(0, tagQueued)
	for !c1.Transport().Ready(0) {
		time.Sleep(50 * time.Microsecond)
	}
	if _, err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if wait, _ := st.TakeOverlap(); wait != 0 {
		t.Errorf("a receive already queued added %v of wait, want 0", wait)
	}

	// The peer sleeps only once it has this message, and this rank
	// waits right after sending it.
	c1.Send(0, tagGo, 0.0)
	if _, err := c1.IRecv(0, tagLate).Wait(); err != nil {
		t.Fatal(err)
	}
	if wait, _ := st.TakeOverlap(); wait < sleep {
		t.Errorf("a receive whose peer slept %v added %v of wait", sleep, wait)
	}
	<-done
}
