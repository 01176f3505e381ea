// Request engine: receives are posted ahead of the compute they
// overlap and completed later, the structural analogue of MPI's
// persistent requests (MPI_Recv_init + MPI_Start) that lets the
// exchange protocols keep all six faces' traffic in flight at once
// instead of one blocking hop per axis.
//
// Design:
//
//   - Sends are plain Comm.Send calls on the caller's goroutine, on
//     every transport. The in-process links enqueue or fail fast past
//     LinkDepth undelivered messages; the TCP links enqueue into a
//     replay window four times that deep and park only while it is
//     full. So a protocol that runs in-process fills the TCP window
//     only while a link reconnects, and head-to-head sends cannot
//     deadlock. No send waits in mp, so none can overtake another and a
//     collective flushes nothing.
//
//   - One Request type, for receives. RecvInit builds an inactive
//     request bound to its source and tag; Start posts it and Wait
//     completes it, after which it may be started again. IRecv is
//     init + start on a fresh request — the one-shot form.
//
//   - Receives are lazy: starting one only enqueues it on a per-source
//     FIFO; the transport Recv runs on the caller's thread at Wait time,
//     in posted order. No goroutine races the protocols for messages —
//     the transports already buffer arrivals internally (the World's
//     channel links, the TCP links' reader queues), so frames keep
//     flowing while the rank computes, and completion order is exactly
//     the deterministic order the protocols Wait in.
//
//   - The blocking Recv keeps a direct transport path when no receive
//     is pending from the same source.
//
// Clock policy: messages and bytes are always counted (by the
// transport), but the clock is read per batch, not per message. A batch
// opens when a receive is started with none in flight and closes when
// the last in-flight receive is waited: one read at each end. Wait
// first probes with Transport.Ready and reads the clock only around a
// receive that actually blocks. A batch's blocked time is its comm
// wait, and its open-to-close span less that wait is its overlap —
// flight time the rank spent computing (or unpacking) instead of
// blocked. Sends join no batch and read no clock.
//
// Determinism: the engine changes only *when* transport receives run,
// never their per-link order — they execute in posted order — so a
// protocol that posts in a fixed order completes in a fixed order
// regardless of scheduling.
package mp

import (
	"fmt"
	"time"
)

// Request is one nonblocking receive, persistent across Start/Wait
// cycles. A Request is owned by the posting rank's goroutine.
type Request struct {
	c    *Comm
	peer int
	tag  int

	data any // the last payload
	err  error

	active   bool // started and not yet waited
	executed bool // the transport Recv ran
	inBatch  bool // counted in the Comm's open batch
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

// RecvInit returns an inactive persistent receive from src with the
// given tag (MPI_Recv_init).
func (c *Comm) RecvInit(src, tag int) *Request {
	return &Request{c: c, peer: src, tag: tag}
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
	r.active, r.executed, r.data, r.err = true, false, nil, nil
	c.recvQ[r.peer].push(r)
	c.open(r)
}

// Wait blocks until the receive completes and returns its payload and
// error. Waiting an inactive request returns the cached result.
func (r *Request) Wait() (any, error) {
	if !r.active {
		return r.data, r.err
	}
	c := r.c
	for !r.executed {
		c.recvHead(r.peer)
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
	if c.t.Ready(src) {
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
