package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Wire framing: every frame is [u32 length][u8 kind][body], length
// counting the kind byte and body. Data frames carry the application
// messages; the rest are link control (handshake, heartbeat, goodbye)
// and rendezvous bootstrap.
const (
	frData  byte = iota + 1 // i64 tag | payload
	frHello                 // u32 rank — link handshake
	frPing                  // i64 sender stamp (ns) — heartbeat
	frPong                  // i64 echoed stamp
	frBye                   // graceful close; peer stops expecting heartbeats
	frJoin                  // u32 rank | u16 len | addr — rendezvous announce
	frTable                 // u32 n | n × (u16 len | addr) — rank→address table
)

// maxFrame bounds one frame's size (a full ghost plane of a large tile
// is a few MB; 1 GiB leaves room for huge migration bursts while
// rejecting corrupt lengths).
const maxFrame = 1 << 30

// readChunk bounds how far a frame's declared length is trusted ahead
// of the bytes that have actually arrived: the read buffer grows by at
// most this much per read, so a corrupt length cannot allocate a
// gigabyte. It is also the largest buffer a frameReader keeps between
// frames.
const readChunk = 1 << 20

// dataHeaderLen is the fixed part of a data frame's body.
const dataHeaderLen = 8

// writeFrame writes one complete frame.
func writeFrame(w io.Writer, kind byte, body []byte) error {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(1+len(body)))
	hdr[4] = kind
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(body) > 0 {
		if _, err := w.Write(body); err != nil {
			return err
		}
	}
	return nil
}

// frameReader reads frames from r into one reused buffer: a returned
// body is valid only until the next read.
type frameReader struct {
	r   io.Reader
	hdr [4]byte
	buf []byte
}

// read reads one complete frame, rejecting lengths beyond maxFrame.
func (fr *frameReader) read() (kind byte, body []byte, err error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(fr.hdr[:]))
	if n < 1 || n > maxFrame {
		return 0, nil, fmt.Errorf("transport: frame length %d outside (0, %d]", n, maxFrame)
	}
	if cap(fr.buf) > readChunk {
		fr.buf = nil // a past burst's buffer is not worth keeping
	}
	buf := fr.buf[:0]
	for len(buf) < n {
		step := min(n-len(buf), readChunk)
		buf = slices.Grow(buf, step)[:len(buf)+step]
		if _, err := io.ReadFull(fr.r, buf[len(buf)-step:]); err != nil {
			return 0, nil, err
		}
	}
	fr.buf = buf
	return buf[0], buf[1:], nil
}

// readFrame reads one frame into a fresh buffer (handshake and
// rendezvous; the link's reader keeps a frameReader).
func readFrame(r io.Reader) (kind byte, body []byte, err error) {
	return (&frameReader{r: r}).read()
}

// Data-frame helpers.

// appendDataHeader appends a data frame's length, kind and tag for a
// payload of the given size; the payload follows on the wire.
func appendDataHeader(b []byte, tag, payloadLen int) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(1+dataHeaderLen+payloadLen))
	b = append(b, frData)
	return binary.LittleEndian.AppendUint64(b, uint64(int64(tag)))
}

func decodeDataBody(body []byte) (tag int, payload []byte, err error) {
	if len(body) < dataHeaderLen {
		return 0, nil, fmt.Errorf("transport: short data frame (%d bytes)", len(body))
	}
	return int(int64(binary.LittleEndian.Uint64(body))), body[dataHeaderLen:], nil
}

// Hello-frame body helpers.

func encodeHelloBody(rank int) []byte {
	return binary.LittleEndian.AppendUint32(nil, uint32(rank))
}

func decodeHelloBody(body []byte) (rank int, err error) {
	if len(body) != 4 {
		return 0, fmt.Errorf("transport: hello frame has %d bytes", len(body))
	}
	return int(binary.LittleEndian.Uint32(body)), nil
}

func encodeU64Body(v uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, v)
}

func decodeU64Body(body []byte) (uint64, error) {
	if len(body) != 8 {
		return 0, fmt.Errorf("transport: u64 frame has %d bytes", len(body))
	}
	return binary.LittleEndian.Uint64(body), nil
}

func encodeJoinBody(rank int, addr string) []byte {
	body := binary.LittleEndian.AppendUint32(nil, uint32(rank))
	body = binary.LittleEndian.AppendUint16(body, uint16(len(addr)))
	return append(body, addr...)
}

func decodeJoinBody(body []byte) (rank int, addr string, err error) {
	if len(body) < 6 {
		return 0, "", fmt.Errorf("transport: short join frame")
	}
	rank = int(binary.LittleEndian.Uint32(body))
	n := int(binary.LittleEndian.Uint16(body[4:]))
	if len(body) != 6+n {
		return 0, "", fmt.Errorf("transport: join frame addr length mismatch")
	}
	return rank, string(body[6:]), nil
}

func encodeTableBody(addrs []string) []byte {
	body := binary.LittleEndian.AppendUint32(nil, uint32(len(addrs)))
	for _, a := range addrs {
		body = binary.LittleEndian.AppendUint16(body, uint16(len(a)))
		body = append(body, a...)
	}
	return body
}

func decodeTableBody(body []byte) ([]string, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("transport: short table frame")
	}
	n := int(binary.LittleEndian.Uint32(body))
	if n > 1<<20 {
		return nil, fmt.Errorf("transport: table frame declares %d ranks", n)
	}
	body = body[4:]
	addrs := make([]string, n)
	for i := range addrs {
		if len(body) < 2 {
			return nil, fmt.Errorf("transport: truncated table frame")
		}
		l := int(binary.LittleEndian.Uint16(body))
		body = body[2:]
		if len(body) < l {
			return nil, fmt.Errorf("transport: truncated table entry")
		}
		addrs[i] = string(body[:l])
		body = body[l:]
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("transport: trailing bytes in table frame")
	}
	return addrs, nil
}
