package transport

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"govpic/internal/mp"
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

// TestTCPWindowNeverWaitsForHeartbeat: a Send parked on a full queue
// is woken by the writer draining it, never by a clock. Ten windows'
// worth of messages must flow, two-way and one-way, with the heartbeat
// 5 s away, so a single wait for a tick fails the 2 s budget.
func TestTCPWindowNeverWaitsForHeartbeat(t *testing.T) {
	const n = 10 * window
	opts := Options{PeerTimeout: 40 * time.Second} // a 5 s heartbeat
	run := func(t *testing.T, rank func(c *mp.Comm)) {
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
	}
	t.Run("ping-pong", func(t *testing.T) {
		run(t, func(c *mp.Comm) {
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
	})
	t.Run("one-way", func(t *testing.T) {
		run(t, func(c *mp.Comm) {
			for i := 0; i < n; i++ {
				if c.Rank() == 0 {
					c.Send(1, 4, int64(i))
				} else if got := c.Recv(0, 4).(int64); got != int64(i) {
					t.Errorf("message %d: got %d", i, got)
					return
				}
			}
		})
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

// TestTCPPeerDeathDetected kills one rank abruptly (no goodbye,
// sockets torn down) and checks the survivor's next blocking operation
// fails with an attributed *mp.PeerDeadError — promptly: the broken
// connection is the verdict, with no reconnect to wait out.
func TestTCPPeerDeathDetected(t *testing.T) {
	opts := fastOpts()
	ts := connectWorld(t, 2, opts)
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
	if detect > 2*opts.PeerTimeout {
		t.Fatalf("detection took %v, want within 2 × PeerTimeout (%v)", detect, 2*opts.PeerTimeout)
	}
	// Sends must fail the same way, immediately now the link is dead.
	if err := ts[0].Send(1, 1, int64(0)); err == nil {
		t.Fatal("send to dead peer should fail")
	}
}

// TestTCPSilentPeerDetected: a peer that completes the rendezvous and
// the hello and then neither reads nor writes keeps its socket open, so
// no EOF ever arrives. The read deadline alone must declare it dead,
// one PeerTimeout after the link's first read, give or take the stated
// slack.
func TestTCPSilentPeerDetected(t *testing.T) {
	opts := fastOpts()
	const slack = 200 * time.Millisecond
	join := testnet.FreeAddr(t)
	type result struct {
		tr  *TCP
		err error
	}
	done := make(chan result, 1)
	go func() {
		tr, err := Connect(0, 2, join, "", opts)
		done <- result{tr, err}
	}()
	silent := silentRank1(t, join)
	defer silent.Close()
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	defer res.tr.Close()
	start := time.Now()
	errc := make(chan error, 1)
	go func() {
		_, err := res.tr.Recv(1, 0)
		errc <- err
	}()
	var err error
	select {
	case err = <-errc:
	case <-time.After(10 * opts.PeerTimeout):
		t.Fatalf("silent peer still alive after %v", 10*opts.PeerTimeout)
	}
	took := time.Since(start)
	pd, ok := err.(*mp.PeerDeadError)
	if !ok || pd.Rank != 0 || pd.Peer != 1 {
		t.Fatalf("want a *mp.PeerDeadError from rank 0 naming peer 1, got %T: %v", err, err)
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("cause %v, want the read deadline", pd.Cause)
	}
	if took > opts.PeerTimeout+slack {
		t.Fatalf("silent peer declared dead after %v, want within %v + %v", took, opts.PeerTimeout, slack)
	}
}

// silentRank1 plays rank 1 of a 2-rank world by hand: it joins the
// rendezvous at join, dials rank 0's mesh listener and exchanges
// hellos, and returns the connection, on which it then stays silent.
func silentRank1(t *testing.T, join string) net.Conn {
	t.Helper()
	var c net.Conn
	var err error
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if c, err = net.Dial("tcp", join); err == nil || time.Now().After(deadline) {
			break
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := writeFrame(c, frJoin, encodeJoinBody(1, "127.0.0.1:1")); err != nil {
		t.Fatal(err)
	}
	if kind, _, err := readFrame(c); err != nil || kind != frTable {
		t.Fatalf("rendezvous: frame kind %d, %v", kind, err)
	}
	mesh, err := net.Dial("tcp", join)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(mesh, frHello, encodeHelloBody(1)); err != nil {
		t.Fatal(err)
	}
	if p, err := readHello(mesh); err != nil || p != 0 {
		t.Fatalf("hello: rank %d, %v", p, err)
	}
	return mesh
}

// TestCloseLeavesNoGoroutines: Close returns only once every link
// goroutine has ended, with no grace period — on a 3-rank world whose
// ranks close together, and on the survivor of a killed peer.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	buf := make([]byte, 1<<20)
	// A goroutine whose deferred Done released Close still shows
	// start's closure until it returns, so the check names the work.
	check := func(t *testing.T) {
		stacks := string(buf[:runtime.Stack(buf, true)])
		for _, fn := range []string{"(*link).writer", "(*link).reader", "(*link).fail"} {
			if strings.Contains(stacks, fn) {
				t.Fatalf("%s still running after Close:\n%s", fn, stacks)
			}
		}
	}
	t.Run("3-rank", func(t *testing.T) {
		ts := connectWorld(t, 3, fastOpts())
		var wg sync.WaitGroup
		for _, tr := range ts {
			wg.Add(1)
			go func(tr *TCP) {
				defer wg.Done()
				mp.NewComm(tr).Barrier()
				tr.Close()
			}(tr)
		}
		wg.Wait()
		check(t)
	})
	t.Run("kill", func(t *testing.T) {
		ts := connectWorld(t, 2, fastOpts())
		ts[1].kill()
		ts[0].Close()
		check(t)
	})
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
