package transport

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"govpic/internal/mp"
	"govpic/internal/perf"
	"govpic/internal/push"
	"govpic/internal/testnet"
)

// fastOpts shrinks PeerTimeout, and with it every timer derived from
// it, so failure-detection tests finish in well under a second of
// detection latency.
func fastOpts() Options {
	return Options{PeerTimeout: 250 * time.Millisecond}
}

// connectWorld brings up a size-rank TCP world on localhost and returns
// the transports indexed by rank.
func connectWorld(t *testing.T, size int, opts Options) []*TCP {
	t.Helper()
	join := testnet.FreeAddr(t)
	ts := make([]*TCP, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ts[rank], errs[rank] = Connect(rank, size, join, "127.0.0.1:0", opts)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d connect: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range ts {
			if tr != nil {
				tr.Close()
			}
		}
	})
	return ts
}

func TestTCPRingExchange(t *testing.T) {
	const size = 4
	ts := connectWorld(t, size, fastOpts())
	var wg sync.WaitGroup
	errs := make(chan error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr := ts[rank]
			next, prev := (rank+1)%size, (rank+size-1)%size
			want := []float32{float32(prev), float32(math.NaN()), -0}
			if err := tr.Send(next, 7, []float32{float32(rank), float32(math.NaN()), -0}); err != nil {
				errs <- fmt.Errorf("rank %d send: %w", rank, err)
				return
			}
			got, err := tr.Recv(prev, 7)
			if err != nil {
				errs <- fmt.Errorf("rank %d recv: %w", rank, err)
				return
			}
			if !bitsEqual32(got.([]float32), want) {
				errs <- fmt.Errorf("rank %d: got %v want %v", rank, got, want)
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestTCPParticleBatchAndCollectives(t *testing.T) {
	const size = 3
	ts := connectWorld(t, size, fastOpts())
	var wg sync.WaitGroup
	sums := make([]float64, size)
	counts := make([]int64, size)
	errs := make(chan error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr := ts[rank]
			// Rank 0 scatters particle batches; everyone returns the count.
			if rank == 0 {
				for dst := 1; dst < size; dst++ {
					batch := make(push.OutgoingBatch, dst*5)
					for i := range batch {
						batch[i].P.Voxel = int32(100*dst + i)
						batch[i].DispX = float32(i)
					}
					if err := tr.Send(dst, 3, batch); err != nil {
						errs <- err
						return
					}
				}
			} else {
				got, err := tr.Recv(0, 3)
				if err != nil {
					errs <- err
					return
				}
				batch := got.(push.OutgoingBatch)
				if len(batch) != rank*5 || batch[len(batch)-1].P.Voxel != int32(100*rank+rank*5-1) {
					errs <- fmt.Errorf("rank %d: bad batch %d", rank, len(batch))
					return
				}
			}
			// The collectives run over these links through mp.Comm.
			defer func() {
				if p := recover(); p != nil {
					errs <- fmt.Errorf("rank %d: %v", rank, p)
				}
			}()
			c := mp.NewComm(tr)
			c.Barrier()
			sums[rank] = c.AllreduceSum(float64(rank) + 0.25)
			counts[rank] = c.AllreduceSumInt(int64(rank))
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	wantSum := 0.25 + 1.25 + 2.25
	for r := 0; r < size; r++ {
		if sums[r] != wantSum || counts[r] != 3 {
			t.Fatalf("rank %d: allreduce got (%v, %d), want (%v, 3)", r, sums[r], counts[r], wantSum)
		}
	}
	// Traffic must show up in the stats of every endpoint.
	for r, tr := range ts {
		links := tr.Stats().Snapshot()
		if len(links) == 0 {
			t.Fatalf("rank %d: no link stats recorded", r)
		}
	}
}

func TestTCPTagMismatchTypedError(t *testing.T) {
	ts := connectWorld(t, 2, fastOpts())
	done := make(chan error, 1)
	go func() { done <- ts[0].Send(1, 5, int64(1)) }()
	_, err := ts[1].Recv(0, 6)
	if serr := <-done; serr != nil {
		t.Fatal(serr)
	}
	var tm *mp.TagMismatchError
	if tme, ok := err.(*mp.TagMismatchError); !ok {
		t.Fatalf("want *mp.TagMismatchError, got %T: %v", err, err)
	} else {
		tm = tme
	}
	if tm.Rank != 1 || tm.Src != 0 || tm.Want != 6 || tm.Got != 5 {
		t.Fatalf("wrong fields: %+v", tm)
	}
}

// TestTCPReconnectReplay severs the live connection every hundred
// frames, from alternating ends, while sequence-stamped messages flow
// in both directions, and checks that replay delivers every message
// exactly once, in order, on both sides — with acks riding the data
// frames and the replay buffer never outgrowing its window.
func TestTCPReconnectReplay(t *testing.T) {
	ts := connectWorld(t, 2, fastOpts())
	const n = 5000
	errs := make(chan error, 4)
	var severed atomic.Int64
	for r := 0; r < 2; r++ {
		go func(rank int) { // receiver
			for i := 0; i < n; i++ {
				got, err := ts[rank].Recv(1-rank, 9)
				if err != nil {
					errs <- fmt.Errorf("rank %d recv %d: %w", rank, i, err)
					return
				}
				if got.(int64) != int64(i) {
					errs <- fmt.Errorf("rank %d recv %d: got %v", rank, i, got)
					return
				}
			}
			errs <- nil
		}(r)
		go func(rank int) { // sender; yanks the wire as it goes
			l := ts[rank].links[1-rank]
			for i := 0; i < n; i++ {
				if i%200 == 100*rank+50 {
					l.mu.Lock()
					if l.curConn != nil {
						l.curConn.Close()
						severed.Add(1)
					}
					l.mu.Unlock()
				}
				if err := ts[rank].Send(1-rank, 9, int64(i)); err != nil {
					errs <- fmt.Errorf("rank %d send %d: %w", rank, i, err)
					return
				}
				l.mu.Lock()
				depth := len(l.replay)
				l.mu.Unlock()
				if depth > replayCap {
					errs <- fmt.Errorf("rank %d: replay buffer holds %d frames, window is %d", rank, depth, replayCap)
					return
				}
			}
			errs <- nil
		}(r)
	}
	for i := 0; i < 4; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("exchange hung across reconnects")
		}
	}
	if severed.Load() < 10 {
		t.Fatalf("only %d of %d severs found a live connection", severed.Load(), n/100)
	}
	for r, tr := range ts {
		st := tr.Stats().Snapshot()[0]
		if st.MsgsSent != n || st.MsgsRecv != n || st.ReplayHighWater > replayCap {
			t.Fatalf("rank %d link stats: %+v", r, st)
		}
	}
}

// TestTCPWindowNeverWaitsForHeartbeat is the regression test for the
// replay-window stall: with acks riding the data (and a standalone ack
// every quarter window of one-way traffic), ten windows' worth of
// messages must flow without ever waiting for the heartbeat — here 5 s
// away, so a single such wait fails the 2 s budget.
func TestTCPWindowNeverWaitsForHeartbeat(t *testing.T) {
	const n = 10 * replayCap
	opts := Options{PeerTimeout: 40 * time.Second} // a 5 s heartbeat
	run := func(t *testing.T, rank func(c *mp.Comm)) []*TCP {
		ts := connectWorld(t, 2, opts)
		start := time.Now()
		var wg sync.WaitGroup
		for r := range ts {
			wg.Add(1)
			go func(c *mp.Comm) {
				defer wg.Done()
				rank(c)
			}(mp.NewComm(ts[r]))
		}
		wg.Wait()
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("%d messages took %v", n, d)
		}
		return ts
	}
	t.Run("ping-pong", func(t *testing.T) {
		ts := run(t, func(c *mp.Comm) {
			other := 1 - c.Rank()
			for i := 0; i < n; i++ {
				c.Send(other, i, int64(i))
				got, err := c.Transport().Recv(other, i)
				if err != nil || got.(int64) != int64(i) {
					t.Errorf("rank %d round %d: got %v, %v", c.Rank(), i, got, err)
					return
				}
			}
		})
		for r, tr := range ts {
			// Every ack had a data frame to ride, and no send ever saw a
			// full window: what a healthy halo exchange reports.
			st := tr.Stats().Snapshot()[0]
			if st.SendBlockedCount != 0 || st.AcksStandalone != 0 || st.ReplayHighWater > ackEvery {
				t.Errorf("rank %d link stats: %+v", r, st)
			}
		}
	})
	t.Run("one-way", func(t *testing.T) {
		ts := run(t, func(c *mp.Comm) {
			for i := 0; i < n; i++ {
				if c.Rank() == 0 {
					c.Send(1, 4, int64(i))
				} else if got := c.Recv(0, 4).(int64); got != int64(i) {
					t.Errorf("message %d: got %d", i, got)
					return
				}
			}
		})
		// Nothing flows back to carry acks, so they travel alone: at
		// most one per quarter window.
		if st := ts[1].Stats().Snapshot()[0]; st.AcksStandalone == 0 || st.AcksStandalone > n/ackEvery {
			t.Errorf("receiver sent %d standalone acks for %d messages", st.AcksStandalone, n)
		}
	})
}

// TestTCPCloseFlushesQueuedSends: Send returns once a message is queued,
// so a rank that sends its last message and closes at once (the final
// barrier release of a run) must still deliver it ahead of the goodbye.
func TestTCPCloseFlushesQueuedSends(t *testing.T) {
	for round := 0; round < 20; round++ {
		ts := connectWorld(t, 2, fastOpts())
		const n = 5
		for i := 0; i < n; i++ {
			if err := ts[0].Send(1, 3, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		ts[0].Close()
		for i := 0; i < n; i++ {
			got, err := ts[1].Recv(0, 3)
			if err != nil || got.(int64) != int64(i) {
				t.Fatalf("round %d message %d: got %v, %v", round, i, got, err)
			}
		}
		ts[1].Close()
	}
}

// TestTCPPeerDeathDetected kills one rank abruptly (no goodbye, sockets
// torn down, listener gone) and checks the survivor's next blocking
// operation fails with an attributed *mp.PeerDeadError — promptly, not
// after hanging.
func TestTCPPeerDeathDetected(t *testing.T) {
	ts := connectWorld(t, 2, fastOpts())
	ts[1].kill()
	start := time.Now()
	_, err := ts[0].Recv(1, 1)
	detect := time.Since(start)
	pd, ok := err.(*mp.PeerDeadError)
	if !ok {
		t.Fatalf("want *mp.PeerDeadError, got %T: %v", err, err)
	}
	if pd.Rank != 0 || pd.Peer != 1 {
		t.Fatalf("wrong attribution: %+v", pd)
	}
	if ce, isCommErr := mp.AsCommError(pd); !isCommErr || ce == nil {
		t.Fatal("PeerDeadError must satisfy mp.CommError")
	}
	// 4 attempts × (dial fail + backoff) with fastOpts is well under 5s.
	if detect > 10*time.Second {
		t.Fatalf("detection took %v", detect)
	}
	// Sends must fail the same way, immediately now the link is dead.
	if err := ts[0].Send(1, 1, int64(0)); err == nil {
		t.Fatal("send to dead peer should fail")
	}
}

// TestLoneAcceptorGivesUpInWindow runs the acceptor side of a link
// whose peer never connects: the supervisor must declare the peer dead
// once the connect window ends, not later. At PeerTimeout 800ms the
// window is 3.9 s and the slack 80 ms; an acceptor that sleeps each
// backoff and then waits at least one more overshoots by 358 ms.
func TestLoneAcceptorGivesUpInWindow(t *testing.T) {
	tr := &TCP{rank: 0, size: 2, opts: Options{PeerTimeout: 800 * time.Millisecond},
		stats: perf.NewCommStats(0), closed: make(chan struct{})}
	l := newLink(tr, 1, false)
	window, slack := tr.opts.connectWindow(), tr.opts.PeerTimeout/10
	start := time.Now()
	tr.wg.Add(1)
	go l.run()
	select {
	case <-l.dead:
	case <-time.After(2 * window):
		t.Fatalf("acceptor still waiting after %v", 2*window)
	}
	took := time.Since(start)
	if took < window || took > window+slack {
		t.Fatalf("acceptor gave up after %v, want the %v window (+%v)", took, window, slack)
	}
	if pd, ok := l.deadErr.(*mp.PeerDeadError); !ok || pd.Peer != 1 {
		t.Fatalf("want a *mp.PeerDeadError for peer 1, got %T: %v", l.deadErr, l.deadErr)
	}
}

// TestTCPSizeOne covers the degenerate single-rank world: no listener,
// no link (a rank never messages itself), trivial collectives.
func TestTCPSizeOne(t *testing.T) {
	tr, err := Connect(0, 1, "", "", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Send(0, 2, []float64{1, 2}); err == nil {
		t.Error("a send to the own rank succeeded")
	}
	if _, err := tr.Recv(0, 2); err == nil {
		t.Error("a receive from the own rank succeeded")
	}
	if tr.Ready(0) {
		t.Error("the own rank reads as ready")
	}
	c := mp.NewComm(tr)
	c.Barrier()
	if out := c.AllreduceSumInt(5); out != 5 {
		t.Fatalf("allreduce: %d", out)
	}
}
