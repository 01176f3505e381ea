package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"govpic/internal/mp"
	"govpic/internal/perf"
)

// Options tunes the TCP transport's failure detection. The zero value
// means the defaults.
type Options struct {
	// PeerTimeout is the failure detector's window (default 2s): a link
	// whose peer has been silent that long, or whose write has not
	// drained in that long, is dead, and the run ends with an attributed
	// *mp.PeerDeadError (rerun from the last checkpoint). The heartbeat
	// derives from it, so one setting scales the time to detect a dead
	// peer.
	PeerTimeout time.Duration
}

const (
	// rendezvousTimeout bounds the whole bootstrap: join-table exchange
	// plus mesh establishment.
	rendezvousTimeout = 30 * time.Second
	// joinRetry paces a joining rank's dials while rank 0 is not yet
	// listening: start-up order, not failure detection, so it does not
	// scale with PeerTimeout.
	joinRetry = 100 * time.Millisecond
)

func (o Options) withDefaults() Options {
	if o.PeerTimeout <= 0 {
		o.PeerTimeout = 2 * time.Second
	}
	return o
}

// heartbeat is the writer's ping cadence: eight pings per PeerTimeout
// (250ms at the default), so a healthy line is never silent that long.
func (o *Options) heartbeat() time.Duration { return o.PeerTimeout / 8 }

// TCP is an mp.Transport over a full mesh of TCP connections, one per
// peer pair (the higher rank dials the lower rank's listener), each
// kept until Close or until it fails.
type TCP struct {
	rank, size int
	opts       Options
	links      []*link // links[rank] == nil: a rank never messages itself
	stats      *perf.CommStats

	closed    chan struct{}
	closeOnce sync.Once
	noBye     atomic.Bool // suppress the goodbye (simulated crash in tests)
	wg        sync.WaitGroup
}

// kill simulates abrupt process death: no goodbye is sent and every
// connection is torn down, so peers must discover the loss through
// their failure detectors. Test hook.
func (t *TCP) kill() {
	t.noBye.Store(true)
	t.closeOnce.Do(func() { close(t.closed) })
	for _, l := range t.links {
		if l != nil {
			l.conn.Close()
		}
	}
	t.wg.Wait()
}

var _ mp.Transport = (*TCP)(nil)

// Connect bootstraps one rank of a size-rank TCP world. Rank 0 listens
// at joinAddr; every other rank dials joinAddr, announces itself with
// its own listener's advertised address, and receives the full
// rank→address table once everyone has joined. Connect then dials every
// lower rank and accepts every higher one, all within
// rendezvousTimeout, closes its listener, and returns with every link
// live: nothing connects after set-up.
func Connect(rank, size int, joinAddr, listenAddr string, opts Options) (*TCP, error) {
	opts = opts.withDefaults()
	if size < 1 || rank < 0 || rank >= size {
		return nil, fmt.Errorf("transport: rank %d outside world of size %d", rank, size)
	}
	t := &TCP{
		rank:   rank,
		size:   size,
		opts:   opts,
		stats:  perf.NewCommStats(rank),
		closed: make(chan struct{}),
	}
	if size == 1 {
		return t, nil
	}
	addr := joinAddr
	if rank != 0 {
		addr = listenAddr
		if addr == "" {
			addr = ":0"
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: rank %d listen: %w", rank, err)
	}
	defer ln.Close()
	deadline := time.Now().Add(rendezvousTimeout)
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	var table []string
	if rank == 0 {
		err = t.rendezvous0(ln)
	} else {
		table, err = t.join(ln, joinAddr, deadline)
		if err == nil && len(table) != size {
			err = fmt.Errorf("transport: rendezvous table has %d entries, want %d", len(table), size)
		}
		if err == nil {
			// Rank 0 is reachable at the join address we just used,
			// whatever its listener advertised.
			table[0] = joinAddr
		}
	}
	if err == nil {
		err = t.mesh(ln, table, deadline)
	}
	if err != nil {
		return nil, err
	}
	for _, l := range t.links {
		if l != nil {
			l.start()
		}
	}
	return t, nil
}

// mesh opens every link: a connection to each lower rank's listener,
// and one accepted from each higher rank, each begun by an exchange of
// hellos naming both ends. A rank dials before it accepts, so it waits
// only on lower ranks, and rank 0 dials none.
func (t *TCP) mesh(ln net.Listener, addrs []string, deadline time.Time) error {
	conns := make([]net.Conn, t.size)
	fail := func(err error) error {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
		return err
	}
	for p := 0; p < t.rank; p++ {
		c, err := t.dial(addrs[p], p, deadline)
		if err != nil {
			return fail(fmt.Errorf("transport: rank %d: link to rank %d: %w", t.rank, p, err))
		}
		conns[p] = c
	}
	for n := t.size - 1 - t.rank; n > 0; {
		c, err := ln.Accept()
		if err != nil {
			missing := []int{}
			for p := t.rank + 1; p < t.size; p++ {
				if conns[p] == nil {
					missing = append(missing, p)
				}
			}
			return fail(fmt.Errorf("transport: rank %d: ranks %v never connected: %w", t.rank, missing, err))
		}
		c.SetDeadline(time.Now().Add(t.opts.PeerTimeout))
		p, err := readHello(c)
		if err == nil && (p <= t.rank || p >= t.size || conns[p] != nil) {
			err = fmt.Errorf("transport: unexpected hello from rank %d", p)
		}
		if err == nil {
			err = writeFrame(c, frHello, encodeHelloBody(t.rank))
		}
		if err != nil { // a stray connection, not a peer's
			c.Close()
			continue
		}
		c.SetDeadline(time.Time{})
		conns[p] = c
		n--
	}
	t.links = make([]*link, t.size)
	for p, c := range conns {
		if c != nil {
			t.links[p] = newLink(t, p, c)
		}
	}
	return nil
}

// dial connects to the lower rank peer at addr and exchanges hellos.
func (t *TCP) dial(addr string, peer int, deadline time.Time) (net.Conn, error) {
	c, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c.SetDeadline(deadline)
	err = writeFrame(c, frHello, encodeHelloBody(t.rank))
	if err == nil {
		var p int
		if p, err = readHello(c); err == nil && p != peer {
			err = fmt.Errorf("transport: hello from rank %d", p)
		}
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	c.SetDeadline(time.Time{})
	return c, nil
}

// readHello reads one frame and returns the rank its hello names.
func readHello(c net.Conn) (int, error) {
	kind, body, err := readFrame(c)
	if err != nil {
		return 0, err
	}
	if kind != frHello {
		return 0, fmt.Errorf("transport: expected hello, got frame kind %d", kind)
	}
	return decodeHelloBody(body)
}

// rendezvous0 is rank 0's side of the bootstrap: collect one join per
// peer, then broadcast the completed rank→address table.
func (t *TCP) rendezvous0(ln net.Listener) error {
	addrs := make([]string, t.size)
	addrs[0] = ln.Addr().String()
	conns := make(map[int]net.Conn)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for seen := 1; seen < t.size; {
		c, err := ln.Accept()
		if err != nil {
			missing := []int{}
			for r := 1; r < t.size; r++ {
				if conns[r] == nil {
					missing = append(missing, r)
				}
			}
			return fmt.Errorf("transport: rendezvous: ranks %v never joined: %w", missing, err)
		}
		c.SetDeadline(time.Now().Add(t.opts.PeerTimeout))
		kind, body, err := readFrame(c)
		if err != nil || kind != frJoin {
			c.Close()
			continue
		}
		rank, addr, err := decodeJoinBody(body)
		if err != nil || rank <= 0 || rank >= t.size {
			c.Close()
			continue
		}
		if old := conns[rank]; old != nil { // rejoin after a timeout: keep the fresh conn
			old.Close()
		} else {
			seen++
		}
		conns[rank] = c
		addrs[rank] = addr
	}
	table := encodeTableBody(addrs)
	for rank, c := range conns {
		c.SetDeadline(time.Now().Add(t.opts.PeerTimeout))
		if err := writeFrame(c, frTable, table); err != nil {
			return fmt.Errorf("transport: rendezvous: sending table to rank %d: %w", rank, err)
		}
	}
	return nil
}

// join is a nonzero rank's side of the bootstrap: dial rank 0, announce
// our advertised address, and wait for the table.
func (t *TCP) join(ln net.Listener, joinAddr string, deadline time.Time) ([]string, error) {
	lastErr := errors.New("never attempted")
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", joinAddr, t.opts.PeerTimeout)
		if err != nil {
			lastErr = err
			time.Sleep(joinRetry)
			continue
		}
		c.SetDeadline(deadline)
		err = writeFrame(c, frJoin, encodeJoinBody(t.rank, advertisedAddr(ln, c)))
		if err == nil {
			var kind byte
			var body []byte
			kind, body, err = readFrame(c)
			if err == nil && kind != frTable {
				err = fmt.Errorf("expected table, got frame kind %d", kind)
			}
			if err == nil {
				c.Close()
				return decodeTableBody(body)
			}
		}
		c.Close()
		lastErr = err
	}
	return nil, fmt.Errorf("transport: rank %d: rendezvous with %s timed out: %w", t.rank, joinAddr, lastErr)
}

// advertisedAddr is this rank's listener address as peers should dial
// it: when the listener is bound to the unspecified address, the host
// is taken from the rendezvous connection's local side.
func advertisedAddr(ln net.Listener, c net.Conn) string {
	la := ln.Addr().String()
	host, port, err := net.SplitHostPort(la)
	if err != nil {
		return la
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		if lh, _, err := net.SplitHostPort(c.LocalAddr().String()); err == nil {
			host = lh
		}
	}
	return net.JoinHostPort(host, port)
}

// Rank returns this endpoint's rank.
func (t *TCP) Rank() int { return t.rank }

// Size returns the world size.
func (t *TCP) Size() int { return t.size }

// Stats returns the per-link communication counters.
func (t *TCP) Stats() *perf.CommStats { return t.stats }

// Send encodes data and queues it on the link to dst. It runs on the
// rank's goroutine, the one sender on each of its links. It blocks only
// while the link's send queue (mp.LinkDepth frames) is full, until the
// writer drains a slot or the link dies; a dead link fails with its
// *mp.PeerDeadError. The link counts
// mp.PayloadBytes(data), as the in-process world does, not the encoded
// length.
func (t *TCP) Send(dst, tag int, data any) error {
	if err := t.peer(dst); err != nil {
		return err
	}
	// The buffer holds the codec's type byte and count, then the payload.
	payload, err := EncodePayload(make([]byte, 0, 5+mp.PayloadBytes(data)), data)
	if err != nil {
		return err
	}
	l := t.links[dst]
	if l.isDead() {
		return l.deadErr
	}
	return l.enqueue(tag, payload, mp.PayloadBytes(data))
}

// Recv blocks for the next in-order message from src. Messages already
// delivered before a peer died remain receivable; afterwards Recv fails
// with the link's *mp.PeerDeadError. A tag mismatch consumes the
// message and fails with *mp.TagMismatchError, mirroring the in-process
// world.
func (t *TCP) Recv(src, tag int) (any, error) {
	if err := t.peer(src); err != nil {
		return nil, err
	}
	l := t.links[src]
	select {
	case m := <-l.in:
		return t.checkTag(src, tag, m)
	default:
	}
	select {
	case m := <-l.in:
		return t.checkTag(src, tag, m)
	case <-l.dead:
		select {
		case m := <-l.in:
			return t.checkTag(src, tag, m)
		default:
		}
		return nil, l.deadErr
	}
}

// Ready reports whether a message from src has arrived, so Recv would
// not block (mp.Comm.Recv's probe before it reads the clock).
func (t *TCP) Ready(src int) bool {
	return t.peer(src) == nil && len(t.links[src].in) > 0
}

// peer checks that r is another rank of the world: a rank has a link to
// every other rank and none to itself.
func (t *TCP) peer(r int) error {
	if r < 0 || r >= t.size || r == t.rank {
		return fmt.Errorf("transport: rank %d has no link to rank %d in a world of size %d", t.rank, r, t.size)
	}
	return nil
}

// checkTag returns m's payload if it carries the wanted tag and counts
// it on its link, mp.PayloadBytes as Send counts it: counted by the
// receiving rank, as in-process, so a report taken after a Recv
// includes its message.
func (t *TCP) checkTag(src, want int, m inMsg) (any, error) {
	if m.tag != want {
		return nil, &mp.TagMismatchError{Rank: t.rank, Src: src, Want: want, Got: m.tag}
	}
	t.links[src].stat.AddRecv(mp.PayloadBytes(m.data))
	return m.data, nil
}

// Close writes what Send queued and a goodbye on every live link, and
// waits for the link goroutines to end: each is bounded by its write
// deadline, so Close takes at most about one PeerTimeout.
func (t *TCP) Close() error {
	t.closeOnce.Do(func() { close(t.closed) })
	t.wg.Wait()
	return nil
}
