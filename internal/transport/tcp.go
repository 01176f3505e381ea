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
	// PeerTimeout is the silence window after which one connection is
	// considered broken and reconnection starts (default 2s). It also
	// bounds one dial plus handshake, and every other timer of the
	// transport derives from it: the heartbeat, the reconnect backoff
	// and budget, and how long Send may park (see the methods below), so
	// one setting scales the whole time to detect a dead peer.
	PeerTimeout time.Duration
}

const (
	// connectAttempts bounds dial/accept tries per (re)connect before
	// the peer is declared dead.
	connectAttempts = 4
	// maxBackoff caps the doubling reconnect backoff.
	maxBackoff = 5 * time.Second
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

// backoff is the first retry delay, doubling up to maxBackoff.
func (o *Options) backoff() time.Duration { return o.PeerTimeout / 8 }

// connectWindow is the dialer side's total (re)connect budget: every
// attempt's PeerTimeout and every backoff between them. The acceptor
// side waits exactly this window for the peer to come back.
func (o *Options) connectWindow() time.Duration {
	w := connectAttempts * o.PeerTimeout
	b := o.backoff()
	for i := 1; i < connectAttempts; i++ {
		w += b
		b = min(2*b, maxBackoff)
	}
	return w
}

// sendTimeout bounds how long Send may park on a full replay window:
// a whole reconnect window plus one PeerTimeout, so a transient drop
// stays invisible to the sender.
func (o *Options) sendTimeout() time.Duration { return o.connectWindow() + o.PeerTimeout }

// TCP is an mp.Transport over a full mesh of TCP connections, one per
// peer pair (the higher rank dials the lower rank's listener).
type TCP struct {
	rank, size int
	opts       Options
	ln         net.Listener
	links      []*link // links[rank] == nil: a rank never messages itself
	stats      *perf.CommStats

	closed    chan struct{}
	closeOnce sync.Once
	noBye     atomic.Bool // suppress the goodbye (simulated crash in tests)
	wg        sync.WaitGroup
}

// kill simulates abrupt process death: no goodbye is sent and every
// live connection is torn down, so peers must discover the loss through
// their failure detectors. Test hook.
func (t *TCP) kill() {
	t.noBye.Store(true)
	t.closeOnce.Do(func() {
		close(t.closed)
		if t.ln != nil {
			t.ln.Close()
		}
	})
	for _, l := range t.links {
		if l == nil {
			continue
		}
		l.mu.Lock()
		if l.curConn != nil {
			l.curConn.Close()
		}
		l.mu.Unlock()
	}
	t.wg.Wait()
}

var _ mp.Transport = (*TCP)(nil)

// Connect bootstraps one rank of a size-rank TCP world. Rank 0 listens
// at joinAddr; every other rank dials joinAddr, announces itself with
// its own listener's advertised address, and receives the full
// rank→address table once everyone has joined. The mesh is then built
// pairwise (higher rank dials lower) and Connect returns only when
// every link is live.
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
	var err error
	if rank == 0 {
		t.ln, err = net.Listen("tcp", joinAddr)
	} else {
		if listenAddr == "" {
			listenAddr = ":0"
		}
		t.ln, err = net.Listen("tcp", listenAddr)
	}
	if err != nil {
		return nil, fmt.Errorf("transport: rank %d listen: %w", rank, err)
	}
	t.links = make([]*link, size)
	for p := 0; p < size; p++ {
		if p != rank {
			t.links[p] = newLink(t, p, rank > p)
		}
	}
	if rank == 0 {
		err = t.rendezvous0()
	} else {
		var table []string
		table, err = t.join(joinAddr)
		if err == nil && len(table) != size {
			err = fmt.Errorf("transport: rendezvous table has %d entries, want %d", len(table), size)
		}
		if err == nil {
			for p := 1; p < rank; p++ {
				t.links[p].addr = table[p]
			}
			// Rank 0 is reachable at the join address we just used,
			// whatever its listener advertised.
			t.links[0].addr = joinAddr
		}
	}
	if err != nil {
		t.ln.Close()
		return nil, err
	}
	t.wg.Add(1)
	go t.acceptLoop()
	for _, l := range t.links {
		if l != nil {
			t.wg.Add(1)
			go l.run()
		}
	}
	deadline := time.After(rendezvousTimeout)
	for _, l := range t.links {
		if l == nil {
			continue
		}
		select {
		case <-l.established:
		case <-l.dead:
			err := l.deadErr
			t.Close()
			return nil, err
		case <-deadline:
			t.Close()
			return nil, fmt.Errorf("transport: rank %d: link to rank %d not established within %v",
				rank, l.peer, rendezvousTimeout)
		}
	}
	return t, nil
}

// rendezvous0 is rank 0's side of the bootstrap: collect one join per
// peer, then broadcast the completed rank→address table.
func (t *TCP) rendezvous0() error {
	deadline := time.Now().Add(rendezvousTimeout)
	if tl, ok := t.ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
		defer tl.SetDeadline(time.Time{})
	}
	addrs := make([]string, t.size)
	addrs[0] = t.ln.Addr().String()
	conns := make(map[int]net.Conn)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for seen := 1; seen < t.size; {
		c, err := t.ln.Accept()
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
func (t *TCP) join(joinAddr string) ([]string, error) {
	deadline := time.Now().Add(rendezvousTimeout)
	lastErr := errors.New("never attempted")
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", joinAddr, t.opts.PeerTimeout)
		if err != nil {
			lastErr = err
			select {
			case <-time.After(joinRetry):
				continue
			case <-t.closed:
				return nil, errClosed
			}
		}
		c.SetDeadline(deadline)
		err = writeFrame(c, frJoin, encodeJoinBody(t.rank, t.advertisedAddr(c)))
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
func (t *TCP) advertisedAddr(c net.Conn) string {
	la := t.ln.Addr().String()
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

// acceptLoop routes incoming mesh connections: read the hello, answer
// with ours (carrying our resume point), and hand the connection to the
// peer's link supervisor.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			if t.isClosed() || errors.Is(err, net.ErrClosed) {
				return
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		t.wg.Add(1)
		go t.handleAccepted(c)
	}
}

func (t *TCP) handleAccepted(c net.Conn) {
	defer t.wg.Done()
	c.SetDeadline(time.Now().Add(t.opts.PeerTimeout))
	kind, body, err := readFrame(c)
	if err != nil || kind != frHello {
		c.Close()
		return
	}
	rank, peerRecv, err := decodeHelloBody(body)
	if err != nil || rank < 0 || rank >= t.size || rank == t.rank {
		c.Close()
		return
	}
	l := t.links[rank]
	if l == nil || l.dialer { // only the lower rank accepts mesh conns
		c.Close()
		return
	}
	l.mu.Lock()
	myRecv := l.recvSeq
	l.mu.Unlock()
	if err := writeFrame(c, frHello, encodeHelloBody(t.rank, myRecv)); err != nil {
		c.Close()
		return
	}
	c.SetDeadline(time.Time{})
	for {
		select {
		case l.conns <- acceptedConn{conn: c, peerRecv: peerRecv}:
			return
		case <-t.closed:
			c.Close()
			return
		default: // a stale conn is parked there: evict it for the fresh one
			select {
			case old := <-l.conns:
				old.conn.Close()
			default:
			}
		}
	}
}

func (t *TCP) isClosed() bool {
	select {
	case <-t.closed:
		return true
	default:
		return false
	}
}

// Rank returns this endpoint's rank.
func (t *TCP) Rank() int { return t.rank }

// Size returns the world size.
func (t *TCP) Size() int { return t.size }

// Stats returns the per-link communication counters.
func (t *TCP) Stats() *perf.CommStats { return t.stats }

// Send encodes data and queues it on the link to dst. It runs on the
// rank's goroutine, the one sender on each of its links. It blocks only
// while the link's replay window is full (the peer is not draining, or
// the link is reconnecting), for at most a reconnect window plus
// PeerTimeout, then fails with *mp.LinkOverflowError; a dead peer fails
// immediately with the link's *mp.PeerDeadError. The link counts
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

// Close announces a goodbye on every live link, stops the listener and
// waits briefly for the I/O goroutines to drain.
func (t *TCP) Close() error {
	t.closeOnce.Do(func() {
		close(t.closed)
		if t.ln != nil {
			t.ln.Close()
		}
	})
	done := make(chan struct{})
	go func() {
		t.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
	}
	return nil
}
