package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"govpic/internal/mp"
	"govpic/internal/perf"
)

// errClosed reports an operation on a transport whose own process
// initiated shutdown.
var errClosed = errors.New("transport: closed")

// errPeerClosed reports a peer that announced a graceful goodbye.
var errPeerClosed = errors.New("transport: peer closed")

// errStopped ends a connection's writer or reader after its sibling
// failed first.
var errStopped = errors.New("transport: connection stopped")

// dataFrame is one queued application message.
type dataFrame struct {
	seq     uint64
	tag     int
	payload []byte
}

// inMsg is one decoded arrival.
type inMsg struct {
	tag  int
	data any
}

// acceptedConn is a handshaken connection routed from the listener to a
// link's supervisor, with the peer's resume point from its hello.
type acceptedConn struct {
	conn     net.Conn
	peerRecv uint64
}

// link is one bidirectional peer connection: a bounded receive queue, a
// supervisor that owns the connection lifecycle (handshake, heartbeats,
// bounded reconnect with backoff), and a sequence-numbered replay
// buffer that doubles as the send queue, so messages in flight when a
// connection drops are redelivered exactly once after a reconnect.
type link struct {
	t      *TCP
	peer   int
	dialer bool   // this side (the higher rank) re-establishes the connection
	addr   string // peer's advertised listen address (dialer side)

	in    chan inMsg        // decoded in-order arrivals, bounded
	conns chan acceptedConn // handshaken conns routed by the acceptor side
	wake  chan struct{}     // signal: the writer has something to send
	room  chan struct{}     // signal: the replay window shrank from full

	established chan struct{}
	estOnce     sync.Once

	dead     chan struct{}
	deadErr  error
	deadOnce sync.Once

	mu      sync.Mutex
	sawBye  bool        // peer said goodbye: do not attempt reconnect
	sendSeq uint64      // last assigned outbound sequence number
	recvSeq uint64      // last inbound sequence delivered to `in`
	ackSent uint64      // highest recvSeq the peer has been told
	replay  []dataFrame // frames the peer has not yet acknowledged, in seq order
	wrSeq   uint64      // last seq written on the live connection; later replay frames are unsent
	pong    int64       // ping stamp awaiting its echo (0: none)
	curConn net.Conn    // live connection, while serve is running

	stat *perf.LinkStat
}

// replayCap bounds the unacknowledged backlog per link; beyond it Send
// applies backpressure and eventually fails with LinkOverflowError.
const replayCap = 4 * mp.LinkDepth

// ackEvery is how many arrivals may go unacknowledged before an ack
// travels alone. Every outbound data frame carries the cumulative ack,
// so only one-way traffic (gathers) gets this far; a quarter of the
// window keeps the sender three quarters ahead of its backpressure.
const ackEvery = replayCap / 4

// ioBuf sizes the per-connection read and write buffers: a step's burst
// of halo frames (a few kB) fits many times over.
const ioBuf = 64 << 10

func newLink(t *TCP, peer int, dialer bool) *link {
	return &link{
		t:           t,
		peer:        peer,
		dialer:      dialer,
		in:          make(chan inMsg, mp.LinkDepth),
		conns:       make(chan acceptedConn, 1),
		wake:        make(chan struct{}, 1),
		room:        make(chan struct{}, 1),
		established: make(chan struct{}),
		dead:        make(chan struct{}),
		stat:        t.stats.Link(peer),
	}
}

// signal posts to a 1-buffered notification channel without blocking:
// a token already there wakes the same waiter.
func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

func (l *link) markDead(err error) {
	l.deadOnce.Do(func() {
		l.deadErr = err
		close(l.dead)
	})
}

func (l *link) isDead() bool {
	select {
	case <-l.dead:
		return true
	default:
		return false
	}
}

// run is the link supervisor: acquire a connection, serve it until it
// breaks, reconnect within the bounded budget, and otherwise declare
// the peer dead so every blocked operation fails with an attributed
// error instead of hanging.
func (l *link) run() {
	defer l.t.wg.Done()
	for {
		conn, peerRecv, err := l.connect()
		if conn == nil {
			if l.t.isClosed() || l.sawByeLocked() {
				l.markDead(&mp.PeerDeadError{Rank: l.t.rank, Peer: l.peer, Cause: errClosed})
				return
			}
			l.markDead(&mp.PeerDeadError{Rank: l.t.rank, Peer: l.peer, Cause: err})
			return
		}
		l.estOnce.Do(func() { close(l.established) })
		l.serve(conn, peerRecv)
		conn.Close()
		if l.t.isClosed() || l.sawByeLocked() {
			l.markDead(&mp.PeerDeadError{Rank: l.t.rank, Peer: l.peer, Cause: errPeerClosed})
			return
		}
	}
}

func (l *link) sawByeLocked() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sawBye
}

// connect acquires a handshaken connection within the connect window:
// the dialer side dials the peer's listener (dial); the acceptor side
// waits for its listener to route a fresh handshake until the window
// ends.
func (l *link) connect() (net.Conn, uint64, error) {
	if l.t.isClosed() {
		return nil, 0, errClosed
	}
	if l.dialer {
		return l.dial()
	}
	select {
	case ac := <-l.conns:
		return ac.conn, ac.peerRecv, nil
	case <-time.After(l.t.opts.connectWindow()):
		return nil, 0, fmt.Errorf("no connection from peer %d", l.peer)
	case <-l.t.closed:
		return nil, 0, errClosed
	}
}

// dial tries connectAttempts dials, each bounded by PeerTimeout, with a
// doubling backoff between them.
func (l *link) dial() (net.Conn, uint64, error) {
	var lastErr error
	backoff := l.t.opts.backoff()
	for attempt := 0; attempt < connectAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(backoff):
			case <-l.t.closed:
				return nil, 0, errClosed
			}
			backoff = min(2*backoff, maxBackoff)
		}
		c, err := net.DialTimeout("tcp", l.addr, l.t.opts.PeerTimeout)
		if err == nil {
			var peerRecv uint64
			if peerRecv, err = l.dialHandshake(c); err == nil {
				return c, peerRecv, nil
			}
			c.Close()
		}
		lastErr = err
	}
	return nil, 0, lastErr
}

// dialHandshake sends this side's hello (with its resume point) and
// validates the peer's.
func (l *link) dialHandshake(c net.Conn) (uint64, error) {
	c.SetDeadline(time.Now().Add(l.t.opts.PeerTimeout))
	defer c.SetDeadline(time.Time{})
	l.mu.Lock()
	myRecv := l.recvSeq
	l.mu.Unlock()
	if err := writeFrame(c, frHello, encodeHelloBody(l.t.rank, myRecv)); err != nil {
		return 0, err
	}
	kind, body, err := readFrame(c)
	if err != nil {
		return 0, err
	}
	if kind != frHello {
		return 0, fmt.Errorf("transport: expected hello, got frame kind %d", kind)
	}
	rank, peerRecv, err := decodeHelloBody(body)
	if err != nil {
		return 0, err
	}
	if rank != l.peer {
		return 0, fmt.Errorf("transport: dialed rank %d, got hello from rank %d", l.peer, rank)
	}
	return peerRecv, nil
}

// serve drives one live connection: everything in the replay buffer
// past the peer's resume point counts as unsent again, then the writer
// and reader run until either fails.
func (l *link) serve(conn net.Conn, peerRecv uint64) {
	l.mu.Lock()
	l.curConn = conn
	l.pruneLocked(peerRecv)
	l.wrSeq = min(peerRecv, l.sendSeq)
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		l.curConn = nil
		l.mu.Unlock()
	}()
	lc := linkConn{Conn: conn, timeout: l.t.opts.PeerTimeout, stat: l.stat}
	errc := make(chan error, 2)
	stop := make(chan struct{})
	go func() { errc <- l.writer(lc, stop) }()
	go func() { errc <- l.reader(lc, stop) }()
	<-errc
	close(stop)
	conn.Close() // unblock the sibling's pending I/O
	<-errc
}

// linkConn arms the connection's deadline on every real read and write
// — behind buffered I/O that is once per syscall, not once per frame —
// and counts the writes. The read deadline is the heartbeat-based
// failure detector: a healthy peer's writer never lets the line go
// silent for PeerTimeout.
type linkConn struct {
	net.Conn
	timeout time.Duration
	stat    *perf.LinkStat
}

func (c linkConn) Read(p []byte) (int, error) {
	c.SetReadDeadline(time.Now().Add(c.timeout))
	return c.Conn.Read(p)
}

func (c linkConn) Write(p []byte) (int, error) {
	c.SetWriteDeadline(time.Now().Add(c.timeout))
	c.stat.AddFlush()
	return c.Conn.Write(p)
}

// unsentLocked returns the replay index of the first frame not yet
// written on the live connection.
func (l *link) unsentLocked() int {
	if len(l.replay) == 0 || l.wrSeq < l.replay[0].seq {
		return 0
	}
	return int(l.wrSeq - l.replay[0].seq + 1)
}

// writer owns all writes on one connection. It drains everything that
// is queued — data frames, each carrying the cumulative ack; a
// standalone ack once ackEvery arrivals found no data frame to ride; a
// pong; the heartbeat's ping — into one buffer and flushes when the
// queue runs dry, so a burst costs one syscall.
func (l *link) writer(conn linkConn, stop <-chan struct{}) error {
	hb := time.NewTicker(l.t.opts.heartbeat())
	defer hb.Stop()
	bw := bufio.NewWriterSize(conn, ioBuf)
	var hdr [5 + dataHeaderLen]byte
	tick, closing := false, false
	for {
		l.mu.Lock()
		var f dataFrame
		i := l.unsentLocked()
		have := i < len(l.replay)
		if have {
			f = l.replay[i]
			l.wrSeq = f.seq
		}
		ack := l.recvSeq
		// The heartbeat also acks a tail too short to reach ackEvery, so
		// the peer's replay buffer does not hold payloads indefinitely.
		ackDue := !have && (ack-l.ackSent >= ackEvery || tick && ack != l.ackSent)
		if have || ackDue {
			l.ackSent = ack
		}
		pong := l.pong
		l.pong = 0
		l.mu.Unlock()

		var err error
		if have {
			if _, err = bw.Write(appendDataHeader(hdr[:0], f.seq, ack, f.tag, len(f.payload))); err == nil {
				_, err = bw.Write(f.payload)
			}
		} else if ackDue {
			l.stat.AddStandaloneAck()
			err = writeFrame(bw, frAck, encodeU64Body(ack))
		}
		if err == nil && pong != 0 {
			err = writeFrame(bw, frPong, encodeU64Body(uint64(pong)))
		}
		if err == nil && tick {
			tick = false
			err = writeFrame(bw, frPing, encodeU64Body(uint64(time.Now().UnixNano())))
		}
		if err != nil {
			return err
		}
		if have {
			continue
		}
		if closing {
			if !l.t.noBye.Load() {
				writeFrame(bw, frBye, nil) // best-effort goodbye
				bw.Flush()
			}
			return errClosed
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		select {
		case <-l.wake:
		case <-hb.C:
			tick = true
		case <-l.t.closed:
			// One more pass: what Send queued before Close goes out
			// ahead of the goodbye.
			closing = true
		case <-stop:
			return errStopped
		}
	}
}

// reader owns all reads on one connection until it breaks, the peer
// says goodbye, or serve stops it.
func (l *link) reader(conn linkConn, stop <-chan struct{}) error {
	fr := frameReader{r: bufio.NewReaderSize(conn, ioBuf)}
	for {
		kind, body, err := fr.read()
		if err != nil {
			return err
		}
		switch kind {
		case frData:
			if err := l.deliver(body, stop); err != nil {
				return err
			}
		case frPing, frPong, frAck:
			v, err := decodeU64Body(body)
			if err != nil {
				return err
			}
			l.control(kind, v)
		case frBye:
			l.mu.Lock()
			l.sawBye = true
			l.mu.Unlock()
			return errPeerClosed
		default:
			return fmt.Errorf("transport: unexpected frame kind %d from peer %d", kind, l.peer)
		}
	}
}

// deliver handles one data frame: the ack it carries prunes the replay
// buffer, then the message is deduplicated by sequence number and
// queued for Recv in order. A frame still undelivered when serve gives
// up on the connection will be replayed on the next one.
func (l *link) deliver(body []byte, stop <-chan struct{}) error {
	seq, ack, tag, payload, err := decodeDataBody(body)
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.pruneLocked(ack)
	dup := seq <= l.recvSeq
	l.mu.Unlock()
	if dup { // already delivered before the reconnect
		return nil
	}
	data, err := DecodePayload(payload)
	if err != nil {
		return err
	}
	select {
	case l.in <- inMsg{tag: tag, data: data}:
	case <-stop:
		return errStopped
	}
	l.mu.Lock()
	l.recvSeq = seq
	ackDue := seq-l.ackSent >= ackEvery
	l.mu.Unlock()
	if ackDue {
		signal(l.wake)
	}
	return nil
}

// control handles the link's u64 control frames: a ping is queued for
// echo, a pong feeds the RTT histogram, a standalone ack prunes.
func (l *link) control(kind byte, v uint64) {
	switch kind {
	case frPing:
		l.mu.Lock()
		l.pong = int64(v) // the latest ping wins; an unechoed one is not measured
		l.mu.Unlock()
		signal(l.wake)
	case frPong:
		l.stat.ObserveRTT(time.Duration(time.Now().UnixNano() - int64(v)))
	case frAck:
		l.mu.Lock()
		l.pruneLocked(v)
		l.mu.Unlock()
	}
}

// pruneLocked drops every replay frame the peer has acknowledged and
// wakes a Send parked on the full window.
func (l *link) pruneLocked(acked uint64) {
	i := 0
	for i < len(l.replay) && l.replay[i].seq <= acked {
		i++
	}
	if i == 0 {
		return
	}
	if len(l.replay) >= replayCap {
		signal(l.room)
	}
	n := copy(l.replay, l.replay[i:])
	clear(l.replay[n:]) // release the acknowledged payloads
	l.replay = l.replay[:n]
}

// enqueue appends one message to the send queue and wakes the writer,
// counting size bytes on the link. It runs on the sending rank's
// goroutine, the link's one sender: with room in the window it never
// blocks; on a full window it parks the rank until an ack frees a slot,
// the peer dies, or the send timeout passes.
func (l *link) enqueue(tag int, payload []byte, size int) error {
	l.mu.Lock()
	if len(l.replay) >= replayCap {
		start := time.Now()
		defer func() { l.stat.AddSendBlocked(time.Since(start)) }()
		timeout := time.NewTimer(l.t.opts.sendTimeout())
		defer timeout.Stop()
		for len(l.replay) >= replayCap {
			l.mu.Unlock()
			select {
			case <-l.room:
			case <-l.dead:
				return l.deadErr
			case <-timeout.C:
				return &mp.LinkOverflowError{Src: l.t.rank, Dst: l.peer, Depth: replayCap}
			}
			l.mu.Lock()
		}
	}
	l.sendSeq++
	l.replay = append(l.replay, dataFrame{seq: l.sendSeq, tag: tag, payload: payload})
	depth := len(l.replay)
	l.mu.Unlock()
	signal(l.wake)
	l.stat.AddSent(size)
	l.stat.ObserveReplay(depth)
	return nil
}
