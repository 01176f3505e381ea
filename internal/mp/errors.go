package mp

import "fmt"

// CommError marks failures of the message substrate itself — protocol
// desync, link overflow, a peer declared dead — as opposed to ordinary
// Go errors from application code. The blocking Comm methods surface
// these by panicking with the typed value; SPMD drivers that must
// survive a sick peer (the distributed runner) recover them with
// AsCommError and turn them into clean, attributed error returns.
type CommError interface {
	error
	commError()
}

// AsCommError reports whether a recovered panic value is a transport
// CommError, returning it typed if so.
func AsCommError(v any) (CommError, bool) {
	ce, ok := v.(CommError)
	return ce, ok
}

// TagMismatchError reports a Recv whose next in-order message from the
// source carried an unexpected tag: the SPMD protocol lost lockstep.
// In-process this is always a programming bug; over a network transport
// it is also how a desynced or byzantine peer manifests, so it must be
// diagnosable without crashing the process.
type TagMismatchError struct {
	Rank int // receiving rank
	Src  int // sending rank
	Want int // expected tag
	Got  int // tag actually at the head of the link
}

func (e *TagMismatchError) Error() string {
	return fmt.Sprintf("mp: rank %d expected tag %d from %d, got %d", e.Rank, e.Want, e.Src, e.Got)
}

func (*TagMismatchError) commError() {}

// LinkOverflowError reports an in-process Send that exceeded the
// per-link depth bound: more than LinkDepth messages queued toward one
// destination without the receiver draining them. The exchange
// protocols post at most a handful per phase, so an overflow means the
// program is not in lockstep; failing fast names the sick link instead
// of blocking the rank forever. (A TCP link parks such a Send until its
// write deadline declares the peer dead: a *PeerDeadError.)
type LinkOverflowError struct {
	Src   int
	Dst   int
	Depth int
}

func (e *LinkOverflowError) Error() string {
	return fmt.Sprintf("mp: link %d->%d overflow (%d undelivered messages)", e.Src, e.Dst, e.Depth)
}

func (*LinkOverflowError) commError() {}

// PeerDeadError reports a peer rank declared dead by the transport's
// failure detector: any break of the link's one connection (an I/O
// error, an expired heartbeat or write deadline, EOF without a
// goodbye), or in-process a rank that panicked under Run. Every pending
// and future operation on the link returns it (in-process, every
// receive that would block); the run resumes from its last checkpoint.
type PeerDeadError struct {
	Rank  int   // local rank observing the death
	Peer  int   // the rank declared dead
	Cause error // the underlying failure (timeout, refused, reset...)
}

func (e *PeerDeadError) Error() string {
	return fmt.Sprintf("mp: rank %d declared peer %d dead: %v", e.Rank, e.Peer, e.Cause)
}

func (e *PeerDeadError) Unwrap() error { return e.Cause }

func (*PeerDeadError) commError() {}

// PayloadBytes estimates the wire size of a payload: exact for the
// types the domain layer and collectives exchange, the declared size
// for types implementing PayloadBytes() int (particle batches), and 0
// for anything else (in-process-only payloads have no wire cost).
func PayloadBytes(data any) int {
	switch v := data.(type) {
	case []float32:
		return 4 * len(v)
	case []float64:
		return 8 * len(v)
	case []byte:
		return len(v)
	case float64, int64, float32, int32, uint32, int:
		return 8
	}
	if s, ok := data.(interface{ PayloadBytes() int }); ok {
		return s.PayloadBytes()
	}
	return 0
}
