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

// dataFrame is one queued application message.
type dataFrame struct {
	tag     int
	payload []byte
}

// inMsg is one decoded arrival.
type inMsg struct {
	tag  int
	data any
}

// link is one peer connection, kept for the life of the world: a
// bounded send queue drained by a writer goroutine, and a reader
// goroutine that fills a bounded receive queue. The heartbeat and the
// per-syscall deadlines are the failure detector. Any break — a read
// or write error, an expired deadline, EOF without a goodbye — is
// final: the link is dead, and every operation on it fails with its
// *mp.PeerDeadError. One stream per link and no redelivery make the
// delivery exactly-once and in order.
type link struct {
	t    *TCP
	peer int
	conn net.Conn

	// Both queues hold mp.LinkDepth messages, the in-process link's
	// bound, so a protocol that runs in-process never fills the
	// receive queue, and the reader never stops reading.
	out  chan dataFrame // queued sends, drained by the writer
	in   chan inMsg     // decoded in-order arrivals, drained by Recv
	pong chan int64     // a ping stamp awaiting its echo

	dead     chan struct{}
	deadErr  error
	deadOnce sync.Once

	stat *perf.LinkStat
}

// ioBuf sizes the per-connection read and write buffers: a step's burst
// of halo frames (a few kB) fits many times over.
const ioBuf = 64 << 10

func newLink(t *TCP, peer int, conn net.Conn) *link {
	return &link{
		t:    t,
		peer: peer,
		conn: conn,
		out:  make(chan dataFrame, mp.LinkDepth),
		in:   make(chan inMsg, mp.LinkDepth),
		pong: make(chan int64, 1),
		dead: make(chan struct{}),
		stat: t.stats.Link(peer),
	}
}

// start runs the link's writer and reader; whichever ends first
// declares the link dead and closes the connection under the other.
func (l *link) start() {
	lc := linkConn{Conn: l.conn, timeout: l.t.opts.PeerTimeout, stat: l.stat}
	l.t.wg.Add(2)
	go func() {
		defer l.t.wg.Done()
		l.fail(l.writer(lc))
	}()
	go func() {
		defer l.t.wg.Done()
		l.fail(l.reader(lc))
	}()
}

// fail declares the link dead with its first cause and closes the
// connection, which ends the sibling goroutine's I/O.
func (l *link) fail(cause error) {
	l.deadOnce.Do(func() {
		l.deadErr = &mp.PeerDeadError{Rank: l.t.rank, Peer: l.peer, Cause: cause}
		close(l.dead)
	})
	l.conn.Close()
}

func (l *link) isDead() bool {
	select {
	case <-l.dead:
		return true
	default:
		return false
	}
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

// writer owns every write on the connection. It drains what is queued
// — data frames, a pong, the heartbeat's ping — into one buffer and
// flushes when the send queue runs dry, so a burst costs one syscall.
// On Close, what Send queued goes out ahead of the goodbye.
func (l *link) writer(conn linkConn) error {
	hb := time.NewTicker(l.t.opts.heartbeat())
	defer hb.Stop()
	bw := bufio.NewWriterSize(conn, ioBuf)
	var hdr [5 + dataHeaderLen]byte
	writeData := func(f dataFrame) error {
		if _, err := bw.Write(appendDataHeader(hdr[:0], f.tag, len(f.payload))); err != nil {
			return err
		}
		_, err := bw.Write(f.payload)
		return err
	}
	for {
		var err error
		select {
		case f := <-l.out:
			err = writeData(f)
			for err == nil && len(l.out) > 0 { // the rest of the burst
				err = writeData(<-l.out)
			}
		case stamp := <-l.pong:
			err = writeFrame(bw, frPong, encodeU64Body(uint64(stamp)))
		case <-hb.C:
			err = writeFrame(bw, frPing, encodeU64Body(uint64(time.Now().UnixNano())))
		case <-l.t.closed:
			for len(l.out) > 0 && err == nil {
				err = writeData(<-l.out)
			}
			if err == nil && !l.t.noBye.Load() {
				if err = writeFrame(bw, frBye, nil); err == nil {
					err = bw.Flush()
				}
			}
			if err != nil {
				return err
			}
			return errClosed
		case <-l.dead:
			return l.deadErr
		}
		if err == nil && len(l.out) == 0 {
			err = bw.Flush()
		}
		if err != nil {
			return err
		}
	}
}

// reader owns every read on the connection until it breaks or the
// peer says goodbye.
func (l *link) reader(conn linkConn) error {
	fr := frameReader{r: bufio.NewReaderSize(conn, ioBuf)}
	for {
		kind, body, err := fr.read()
		if err != nil {
			return err
		}
		switch kind {
		case frData:
			tag, payload, err := decodeDataBody(body)
			if err != nil {
				return err
			}
			data, err := DecodePayload(payload)
			if err != nil {
				return err
			}
			select {
			case l.in <- inMsg{tag: tag, data: data}:
			case <-l.dead:
				return l.deadErr
			}
		case frPing, frPong:
			v, err := decodeU64Body(body)
			if err != nil {
				return err
			}
			if kind == frPong {
				l.stat.ObserveRTT(time.Duration(time.Now().UnixNano() - int64(v)))
				break
			}
			select {
			case l.pong <- int64(v):
			default: // a ping still awaits its echo; this one is not measured
			}
		case frBye:
			return errPeerClosed
		default:
			return fmt.Errorf("transport: unexpected frame kind %d from peer %d", kind, l.peer)
		}
	}
}

// enqueue queues one message for the writer, counting size bytes on
// the link. It runs on the sending rank's goroutine, the link's one
// sender: it parks only while the queue is full, until the writer
// drains a slot or the link dies.
func (l *link) enqueue(tag int, payload []byte, size int) error {
	select {
	case l.out <- dataFrame{tag: tag, payload: payload}:
	case <-l.dead:
		return l.deadErr
	}
	l.stat.AddSent(size)
	return nil
}
