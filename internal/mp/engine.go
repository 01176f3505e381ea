// Nonblocking request engine: requests post operations that complete
// asynchronously while the rank computes, the structural analogue of
// MPI's persistent requests (MPI_Send_init/MPI_Recv_init + MPI_Start)
// that lets the exchange protocols keep all six faces' traffic in
// flight at once instead of one blocking hop per axis.
//
// Design:
//
//   - One Request type. SendInit/RecvInit build an inactive request
//     bound to its peer, tag and (for sends) payload; Start posts it and
//     Wait completes it, after which it may be started again. ISend and
//     IRecv are init + start on a fresh request — the one-shot form.
//
//   - Starting a send never blocks the caller. On a transport whose
//     Send applies backpressure (the TCP replay buffer) every started
//     send joins a per-destination FIFO drained by a short-lived
//     goroutine (the drainer exits the moment its queue runs dry) —
//     this is what removes the classic send-send deadlock between two
//     ranks exchanging large volumes head-to-head. On a transport whose
//     Send cannot block (the in-process channel links, which enqueue or
//     fail fast), the send executes inline on the caller's thread
//     instead: same posted order, no goroutine.
//
//   - Receives are lazy: starting one only enqueues it on a per-source
//     FIFO; the transport Recv runs on the caller's thread at Wait time,
//     in posted order. No goroutine races the protocols for messages —
//     the transports already buffer arrivals internally (the World's
//     channel links, the TCP links' reader queues), so frames keep
//     flowing while the rank computes, and completion order is exactly
//     the deterministic order the protocols Wait in.
//
//   - The blocking Send/Recv keep a direct fast path when no engine
//     operation is pending on the same peer, preserving the synchronous
//     path's semantics (including fail-fast link overflow) byte for byte.
//
// Clock policy: messages and bytes are always counted (by the
// transport), but the clock is read per batch, not per message. A batch
// opens when a request is started with none in flight and closes when
// the last in-flight request is waited: one read at each end. Wait
// first probes without blocking and reads the clock only around a wait
// that actually blocks. A batch's blocked time is its comm wait, and its
// open-to-close span less that wait is its overlap — flight time the
// rank spent computing (or unpacking) instead of blocked. Inline sends
// complete when started, so they join no batch and read no clock.
//
// Determinism: the engine changes only *when* transport calls run, never
// their per-link order — sends drain in posted order, receives execute
// in posted order — so a protocol that posts in a fixed order completes
// in a fixed order regardless of scheduling.
package mp

import (
	"fmt"
	"time"
)

// Request is one nonblocking operation, persistent across Start/Wait
// cycles. A Request is owned by the posting rank's goroutine.
type Request struct {
	c      *Comm
	peer   int
	tag    int
	isRecv bool

	data any // sends: the bound payload; receives: the last payload
	err  error

	done     chan struct{} // queued sends: the drainer's completion token (capacity 1)
	active   bool          // started and not yet waited
	executed bool          // the transport call ran (receives, inline sends)
	inBatch  bool          // counted in the Comm's open batch
}

// sendQueue is the per-destination FIFO behind queued sends.
type sendQueue struct {
	fifo
	last    *Request // most recently posted (flush target)
	running bool     // a drainer goroutine is active
}

// fifo is a request queue that reuses its backing array once drained,
// so a steady stream of posts allocates nothing.
type fifo struct {
	q    []*Request
	head int
}

func (f *fifo) push(r *Request) { f.q = append(f.q, r) }

func (f *fifo) len() int { return len(f.q) - f.head }

// pop removes the oldest request; the queue must not be empty.
func (f *fifo) pop() *Request {
	r := f.q[f.head]
	f.q[f.head] = nil
	f.head++
	if f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return r
}

// SendInit returns an inactive persistent send of data to dst with the
// given tag (MPI_Send_init). data is bound for the request's lifetime:
// a pointer or a slice whose contents the owner rewrites between uses,
// never while the request is active. On the in-process transport the
// receiver reads the payload by reference after Wait returns here, so
// the owner must also know the peer has finished with it before the
// next rewrite — the domain package's two-slot plans are the pattern.
func (c *Comm) SendInit(dst, tag int, data any) *Request {
	return &Request{c: c, peer: dst, tag: tag, data: data}
}

// RecvInit returns an inactive persistent receive from src with the
// given tag (MPI_Recv_init).
func (c *Comm) RecvInit(src, tag int) *Request {
	return &Request{c: c, peer: src, tag: tag, isRecv: true}
}

// ISend posts a one-shot nonblocking send of data to dst and returns
// its request handle. The payload must not be mutated until Wait
// returns (zero-copy transport semantics, same as Send). Posting never
// blocks; transport errors surface from Wait.
func (c *Comm) ISend(dst, tag int, data any) *Request {
	r := c.SendInit(dst, tag, data)
	r.Start()
	return r
}

// IRecv posts a one-shot nonblocking receive from src with the given
// tag and returns its request handle; Wait returns the payload.
// Receives on one source must be waited in an order consistent with
// their posting (the engine executes them in posted order).
func (c *Comm) IRecv(src, tag int) *Request {
	r := c.RecvInit(src, tag)
	r.Start()
	return r
}

// Start posts the request (MPI_Start). Starting an active request — one
// not yet waited since its last Start — is a protocol bug and panics.
func (r *Request) Start() {
	if r.active {
		panic(fmt.Sprintf("mp: rank %d restarted an active request (peer %d, tag %d)", r.c.t.Rank(), r.peer, r.tag))
	}
	c := r.c
	r.active, r.executed, r.err = true, false, nil
	if r.isRecv {
		r.data = nil
		c.recvQ[r.peer].push(r)
		c.open(r)
		return
	}
	if c.inlineSend {
		r.err = c.t.Send(r.peer, r.tag, r.data)
		r.executed = true
		return
	}
	if r.done == nil {
		r.done = make(chan struct{}, 1)
	}
	c.open(r)
	c.mu.Lock()
	q := &c.sendQ[r.peer]
	q.push(r)
	q.last = r
	if !q.running {
		q.running = true
		go c.drainSends(r.peer, q)
	}
	c.mu.Unlock()
}

// drainSends executes one destination's queued sends in posted order and
// exits when the queue runs dry. The `running` flag is cleared only
// after the final transport Send has returned, so the blocking Send
// fast path can never overtake a queued message.
func (c *Comm) drainSends(dst int, q *sendQueue) {
	for {
		c.mu.Lock()
		if q.len() == 0 {
			q.running = false
			c.mu.Unlock()
			return
		}
		r := q.pop()
		c.mu.Unlock()
		r.err = c.t.Send(dst, r.tag, r.data)
		r.done <- struct{}{}
	}
}

// Wait blocks until the request completes and returns its payload (the
// bound payload for sends) and error. Waiting an inactive request
// returns the cached result.
func (r *Request) Wait() (any, error) {
	if !r.active {
		return r.data, r.err
	}
	c := r.c
	switch {
	case r.isRecv:
		for !r.executed {
			c.recvHead(r.peer)
		}
	case !r.executed:
		select {
		case <-r.done:
		default:
			t0 := time.Now()
			<-r.done
			c.blocked += time.Since(t0)
		}
	}
	r.active = false
	c.close(r)
	return r.data, r.err
}

// recvHead executes the oldest queued receive from src. Earlier
// receives completed on the way to a later one keep their results for
// their own Wait calls.
func (c *Comm) recvHead(src int) {
	q := &c.recvQ[src]
	if q.len() == 0 {
		panic(fmt.Sprintf("mp: rank %d waiting on an unqueued receive from %d", c.t.Rank(), src))
	}
	head := q.pop()
	if c.ready != nil && c.ready.Ready(src) {
		head.data, head.err = c.t.Recv(src, head.tag)
	} else {
		t0 := time.Now()
		head.data, head.err = c.t.Recv(src, head.tag)
		c.blocked += time.Since(t0)
	}
	head.executed = true
}

// open counts a started request into the open batch, opening one (one
// clock read) when none is in flight.
func (c *Comm) open(r *Request) {
	if c.stats == nil {
		return
	}
	if c.inFlight == 0 {
		c.batchStart, c.blocked = time.Now(), 0
	}
	c.inFlight++
	r.inBatch = true
}

// close retires a waited request from the open batch; the last one
// closes it (one clock read) and books its wait and overlap.
func (c *Comm) close(r *Request) {
	if !r.inBatch {
		return
	}
	r.inBatch = false
	c.inFlight--
	if c.inFlight == 0 {
		c.stats.AddWait(c.blocked)
		c.stats.AddOverlap(time.Since(c.batchStart) - c.blocked)
	}
}

// sendIdle reports whether no engine send is pending toward dst, so a
// blocking Send may use the direct transport path without overtaking
// queued messages.
func (c *Comm) sendIdle(dst int) bool {
	if c.inlineSend {
		return true
	}
	c.mu.Lock()
	idle := !c.sendQ[dst].running
	c.mu.Unlock()
	return idle
}

// recvIdle reports whether no engine receive is pending from src.
func (c *Comm) recvIdle(src int) bool { return c.recvQ[src].len() == 0 }

// flushSends waits for every queued send to reach the transport. The
// collectives call it first: they share the data links, so a collective
// must never overtake a queued point-to-point message.
func (c *Comm) flushSends() {
	if c.inlineSend {
		return
	}
	for dst := range c.sendQ {
		c.mu.Lock()
		var last *Request
		if q := &c.sendQ[dst]; q.running {
			last = q.last
		}
		c.mu.Unlock()
		if last != nil {
			if _, err := last.Wait(); err != nil {
				panic(err)
			}
		}
	}
}

// assertNoPendingRecvs panics if a posted receive was never waited — a
// protocol bug that would otherwise surface as a tag mismatch when a
// collective reads the same link.
func (c *Comm) assertNoPendingRecvs() {
	for src := range c.recvQ {
		if n := c.recvQ[src].len(); n > 0 {
			panic(fmt.Sprintf("mp: rank %d entering a collective with %d unwaited receives from %d", c.t.Rank(), n, src))
		}
	}
}
