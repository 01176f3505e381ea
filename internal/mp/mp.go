// Package mp is the message-passing substrate that stands in for MPI
// (and, on Roadrunner, the DaCS Opteron↔Cell relay). The primitives are
// the ones VPIC's communication layer uses — point-to-point
// send/receive, barriers, and reductions. A Transport carries only the
// point-to-point messages: the in-process World below (ranks are
// goroutines, links are buffered channels) or a network fabric
// (internal/transport's TCP mesh). The collectives are built once, in
// Comm, over the transport's own links, so every world runs them with
// the same messages in the same order. Their two halves, Gather and
// Bcast, are exported for the handoffs that move payloads to and from
// rank 0 rather than reduce them.
//
// Semantics: messages on one (src,dst) link are delivered in order;
// Recv blocks until a message from the requested source arrives and
// checks that its tag matches the protocol's expectation. A rank never
// messages itself: there is no (r,r) link, so a send to or a receive
// from the own rank is an error on every transport. Payloads are
// passed by reference in-process; the sender must not mutate a payload
// after sending, exactly like a zero-copy transport.
//
// Payload ownership: the in-process receiver reads a sent payload by
// reference after the sender's Send has returned, so a buffer the
// sender reuses may be rewritten only once the peer is known to be done
// with it — in practice, after receiving a message the peer sent after
// its unpack (see internal/domain's two-slot plans). The TCP transport
// encodes into a fresh frame before its Send returns, so there the
// buffer is free at once.
//
// Send and Recv are calls on the caller's goroutine, on every
// transport. Overlap comes from the transports: they buffer arrivals
// (the World's channel links, the TCP links' reader queues) while the
// rank computes, so a protocol sends early and receives late. Receives
// run in the order the protocol calls them, so every link's order is
// fixed by the code, not by scheduling.
//
// Clock policy: messages and bytes are always counted (by the
// transport); the clock is read only around a receive that blocks —
// Recv probes Transport.Ready first — and the blocked time is the
// rank's comm wait (CommStats.TakeWait), collectives included. Sends
// read no clock. A World receive that would block first yields its
// processor through wait.Until, looking at the link between yields,
// and parks only after: a parked receiver is readied onto its sender's
// processor, so the two ranks would share one core until the idle one
// steals a goroutine back. The yield counts as comm wait like the
// park it precedes, and each window that runs out is counted on the
// link (perf.CommLinkStat.SpinsExpired). A TCP receive parks at once: a
// yielding goroutine keeps the scheduler from polling the network, so
// the link's reader goroutine, which the receive waits for, would wait
// for the system monitor.
//
// Substrate failures (tag mismatch, link overflow, dead peer) are typed
// CommErrors: the Transport methods return them, and the Comm wrappers
// panic with the typed value so SPMD code stays uncluttered while a
// supervising driver can recover and attribute them. A rank that
// panics is a dead peer on both transports: its process's exit breaks
// its TCP links, and Run declares an in-process one dead to the World.
package mp

import (
	"fmt"
	"sync"
	"time"

	"govpic/internal/perf"
	"govpic/internal/wait"
)

// Transport is the pluggable rank-to-rank message fabric under Comm.
// Implementations must deliver messages on one (src,dst) link in order
// and may fail with typed CommErrors.
type Transport interface {
	// Rank returns this endpoint's rank.
	Rank() int
	// Size returns the world size.
	Size() int
	// Send delivers data to dst with the given tag on the caller's
	// goroutine. In-process, it fails with a *LinkOverflowError when
	// the per-link bound is exceeded.
	Send(dst, tag int, data any) error
	// Recv blocks until the next in-order message from src arrives and
	// returns its payload; a tag mismatch returns *TagMismatchError with
	// the message consumed.
	Recv(src, tag int) (any, error)
	// Ready reports whether a message from src has arrived, so Recv
	// would not block: Comm.Recv's probe before it reads the clock.
	Ready(src int) bool
	// Stats returns the per-link communication counters of this
	// endpoint, or nil if the transport does not keep them.
	Stats() *perf.CommStats
	// Close releases the endpoint's resources (network transports
	// announce a graceful goodbye to peers).
	Close() error
}

// message is one in-flight payload.
type message struct {
	tag  int
	data any
}

// World is the in-process Transport provider: it owns the channel links
// of an n-rank communicator group whose ranks are goroutines.
type World struct {
	n     int
	links [][]chan message // links[src][dst], nil for src == dst
	stats []*perf.CommStats

	// dead closes when a rank under Run panics (fail): a receive that
	// would block then fails, naming deadRank and its panic.
	dead      chan struct{}
	deadRank  int
	deadCause error
	deadOnce  sync.Once
}

// LinkDepth bounds the number of undelivered messages per (src,dst)
// pair of the in-process world. The exchange protocols post at most a
// handful per phase; the generous depth means senders never hit the
// bound in a healthy run. A send beyond it fails fast with
// *LinkOverflowError instead of blocking forever.
const LinkDepth = 64

// NewWorld creates an n-rank world.
func NewWorld(n int) *World {
	if n < 1 {
		panic(fmt.Sprintf("mp: world size %d", n))
	}
	w := &World{n: n, links: make([][]chan message, n), stats: make([]*perf.CommStats, n),
		dead: make(chan struct{})}
	for s := range w.links {
		w.links[s] = make([]chan message, n)
		for d := range w.links[s] {
			if d != s { // a rank never messages itself
				w.links[s][d] = make(chan message, LinkDepth)
			}
		}
		w.stats[s] = perf.NewCommStats(s)
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }

// fail declares rank dead after it panicked with p. Every receive on
// the world that would block, now or later, then fails with a
// *PeerDeadError naming it, as a TCP link fails when its peer's process
// exits, so no rank waits for a message the dead one will never send.
// The first death is the one named.
func (w *World) fail(rank int, p any) {
	w.deadOnce.Do(func() {
		w.deadRank, w.deadCause = rank, fmt.Errorf("panicked: %v", p)
		close(w.dead)
	})
}

// Comm returns rank's endpoint over the in-process transport.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.n {
		panic(fmt.Sprintf("mp: rank %d outside world of %d", rank, w.n))
	}
	return NewComm(&localTransport{w: w, rank: rank, links: make([]*perf.LinkStat, w.n)})
}

// localTransport is one rank's endpoint on a World's channel links.
// links caches the rank's per-peer counters, so a message costs no map
// lookup and no lock.
type localTransport struct {
	w     *World
	rank  int
	links []*perf.LinkStat
}

// link returns the counters of the link toward peer.
func (t *localTransport) link(peer int) *perf.LinkStat {
	l := t.links[peer]
	if l == nil {
		l = t.w.stats[t.rank].Link(peer)
		t.links[peer] = l
	}
	return l
}

func (t *localTransport) Rank() int { return t.rank }
func (t *localTransport) Size() int { return t.w.n }

func (t *localTransport) Send(dst, tag int, data any) error {
	if dst == t.rank {
		return fmt.Errorf("mp: rank %d sends to itself", dst)
	}
	select {
	case t.w.links[t.rank][dst] <- message{tag: tag, data: data}:
	default:
		return &LinkOverflowError{Src: t.rank, Dst: dst, Depth: LinkDepth}
	}
	t.link(dst).AddSent(PayloadBytes(data))
	return nil
}

func (t *localTransport) Recv(src, tag int) (any, error) {
	if src == t.rank {
		return nil, fmt.Errorf("mp: rank %d receives from itself", src)
	}
	ch := t.w.links[src][t.rank]
	var m message
	select {
	case m = <-ch:
	default:
		if !wait.Until(func() bool { return len(ch) > 0 }) {
			t.link(src).AddSpinExpired()
		}
		select {
		case m = <-ch:
		case <-t.w.dead:
			// A message sent before the death is still delivered.
			select {
			case m = <-ch:
			default:
				return nil, &PeerDeadError{Rank: t.rank, Peer: t.w.deadRank, Cause: t.w.deadCause}
			}
		}
	}
	if m.tag != tag {
		return nil, &TagMismatchError{Rank: t.rank, Src: src, Want: tag, Got: m.tag}
	}
	t.link(src).AddRecv(PayloadBytes(m.data))
	return m.data, nil
}

func (t *localTransport) Stats() *perf.CommStats { return t.w.stats[t.rank] }

func (t *localTransport) Ready(src int) bool { return len(t.w.links[src][t.rank]) > 0 }

func (t *localTransport) Close() error { return nil }

// Comm is one rank's communication endpoint: the SPMD-facing API over a
// Transport. The methods panic with the transport's typed CommError on
// substrate failure; drivers that must survive a sick peer recover it
// with AsCommError.
type Comm struct {
	t     Transport
	stats *perf.CommStats
	slots []any // rank 0's collective slots, one per rank
}

// NewComm wraps a transport endpoint in the SPMD API.
func NewComm(t Transport) *Comm {
	return &Comm{t: t, stats: t.Stats(), slots: make([]any, t.Size())}
}

// Transport returns the underlying fabric endpoint.
func (c *Comm) Transport() Transport { return c.t }

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.t.Rank() }

// Size returns the world size.
func (c *Comm) Size() int { return c.t.Size() }

// Stats returns the endpoint's per-link communication counters (nil if
// the transport does not keep them).
func (c *Comm) Stats() *perf.CommStats { return c.t.Stats() }

// Send delivers data to dst with the given tag on the caller's
// goroutine, panicking with the typed CommError on substrate failure
// (link overflow, dead peer). The payload must not be mutated until the
// peer has received it (zero-copy transport semantics; see the package
// doc).
func (c *Comm) Send(dst, tag int, data any) {
	if err := c.t.Send(dst, tag, data); err != nil {
		panic(err)
	}
}

// Recv blocks until the next message from src arrives and returns its
// payload, panicking with the typed CommError on substrate failure (tag
// mismatch, dead peer). A receive whose message has already arrived
// reads no clock; one that blocks books its blocked time as comm wait.
func (c *Comm) Recv(src, tag int) any {
	var data any
	var err error
	if c.stats == nil || c.t.Ready(src) {
		data, err = c.t.Recv(src, tag)
	} else {
		t0 := time.Now()
		data, err = c.t.Recv(src, tag)
		c.stats.AddWait(time.Since(t0))
	}
	if err != nil {
		panic(err)
	}
	return data
}

// Reserved negative tags of the collectives; the application tag space
// is non-negative.
const (
	tagBarrier = -100
	tagGather  = -101
	tagBcast   = -102
)

// Gather is the collective's first half: every rank sends x to rank 0
// with tag, and rank 0 receives them in rank order. Rank 0 gets a fresh
// rank-ordered slice, its own x first, which the Comm does not keep;
// every other rank gets nil. Like every collective it shares the data
// links: a message sent before it must be received before it.
func (c *Comm) Gather(tag int, x any) []any {
	var slots []any
	if c.Rank() == 0 {
		slots = make([]any, c.Size())
	}
	return c.gather(slots, tag, x)
}

// gather is Gather into rank 0's slots.
func (c *Comm) gather(slots []any, tag int, x any) []any {
	if c.Rank() != 0 {
		c.Send(0, tag, x)
		return nil
	}
	slots[0] = x
	for r := 1; r < c.Size(); r++ {
		slots[r] = c.Recv(r, tag)
	}
	return slots
}

// Bcast is the collective's second half: rank 0 sends x to every other
// rank with tag, in rank order, and every rank returns rank 0's x (the
// other ranks' x is ignored).
func (c *Comm) Bcast(tag int, x any) any {
	if c.Rank() != 0 {
		return c.Recv(0, tag)
	}
	for r := 1; r < c.Size(); r++ {
		c.Send(r, tag, x)
	}
	return x
}

// Barrier blocks until every rank of the world has entered it.
func (c *Comm) Barrier() { c.collective(tagBarrier, tagBarrier, int64(0), nil) }

// allreduce gathers one value per rank, applies reduce to the full
// rank-ordered set once, and hands every rank the result.
func (c *Comm) allreduce(x any, reduce func([]any) any) any {
	return c.collective(tagGather, tagBcast, x, reduce)
}

// collective is Gather with tag up, then on rank 0 reduce over the
// rank-ordered values (nil keeps rank 0's x), then Bcast of the result
// with tag down. Rank 0 gathers into the Comm's own slots and clears
// them before it sends, so a collective allocates no slice and keeps no
// payload.
func (c *Comm) collective(up, down int, x any, reduce func([]any) any) any {
	if xs := c.gather(c.slots, up, x); xs != nil && reduce != nil {
		x = reduce(xs)
	}
	clear(c.slots)
	return c.Bcast(down, x)
}

// AllreduceSum returns the sum of x over all ranks, on every rank. The
// sum is applied in rank order on every transport, so the result is
// bit-identical however the world is laid out.
func (c *Comm) AllreduceSum(x float64) float64 {
	return c.allreduce(x, func(xs []any) any {
		var s float64
		for _, v := range xs {
			s += v.(float64)
		}
		return s
	}).(float64)
}

// AllreduceMax returns the maximum of x over all ranks, on every rank.
func (c *Comm) AllreduceMax(x float64) float64 {
	return c.allreduce(x, func(xs []any) any {
		m := xs[0].(float64)
		for _, v := range xs[1:] {
			if f := v.(float64); f > m {
				m = f
			}
		}
		return m
	}).(float64)
}

// AllreduceSumF64s returns the element-wise sum of x over all ranks,
// on every rank. Every rank must pass the same length; the sum is
// applied in rank order, so the result is bit-identical however the
// world is laid out. The load balancer uses it to agree on the global
// per-plane particle weights before a deterministic repartition.
func (c *Comm) AllreduceSumF64s(x []float64) []float64 {
	out := c.allreduce(x, func(xs []any) any {
		s := make([]float64, len(x))
		for _, v := range xs {
			for i, f := range v.([]float64) {
				s[i] += f
			}
		}
		return s
	}).([]float64)
	// Rank 0 sends every rank the same reduced object, which the
	// in-process transport passes by reference; copy so callers own
	// their result.
	return append([]float64(nil), out...)
}

// AllreduceSumInt returns the integer sum of x over all ranks.
func (c *Comm) AllreduceSumInt(x int64) int64 {
	return c.allreduce(x, func(xs []any) any {
		var s int64
		for _, v := range xs {
			s += v.(int64)
		}
		return s
	}).(int64)
}

// Run executes fn concurrently on every rank of a fresh in-process
// world and returns after all ranks finish. A rank that panics is
// declared dead to the others (World.fail), so a peer waiting for it
// fails instead of hanging; the first panic is re-raised.
func Run(nRanks int, fn func(c *Comm)) {
	w := NewWorld(nRanks)
	var wg sync.WaitGroup
	panics := make(chan any, nRanks)
	for r := 0; r < nRanks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics <- p
					w.fail(rank, p)
				}
			}()
			fn(w.Comm(rank))
		}(r)
	}
	wg.Wait()
	select {
	case p := <-panics:
		panic(p)
	default:
	}
}
