package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"govpic/internal/push"
)

// seedBodies returns one well-formed body per frame kind, the data kind
// once per payload type and once with no payload.
func seedBodies(t testing.TB) map[byte][][]byte {
	t.Helper()
	bodies := map[byte][][]byte{
		frHello: {encodeHelloBody(3)},
		frPing:  {encodeU64Body(1 << 60)},
		frPong:  {encodeU64Body(1 << 60)},
		frBye:   {nil},
		frJoin:  {encodeJoinBody(2, "127.0.0.1:4040")},
		frTable: {encodeTableBody([]string{"a:1", "b:2", ""})},
	}
	for i, data := range []any{
		float64(1.5), int64(-9), []float32{1, 2, 3}, []float64{4, 5},
		make(push.OutgoingBatch, 2), []byte("report"),
	} {
		payload, err := EncodePayload(nil, data)
		if err != nil {
			t.Fatal(err)
		}
		hdr := appendDataHeader(nil, -100-i, len(payload))
		bodies[frData] = append(bodies[frData], append(hdr[5:], payload...))
	}
	bodies[frData] = append(bodies[frData], appendDataHeader(nil, 7, 0)[5:])
	return bodies
}

func frameBytes(kind byte, body []byte) []byte {
	var buf bytes.Buffer
	writeFrame(&buf, kind, body)
	return buf.Bytes()
}

func TestDataHeaderRoundTrip(t *testing.T) {
	payload := []byte{ptBytes, 1, 0, 0, 0, 'x'}
	frame := append(appendDataHeader(nil, -101, len(payload)), payload...)
	kind, body, err := readFrame(bytes.NewReader(frame))
	if err != nil || kind != frData {
		t.Fatalf("readFrame: kind %d, %v", kind, err)
	}
	tag, got, err := decodeDataBody(body)
	if err != nil || tag != -101 || !bytes.Equal(got, payload) {
		t.Fatalf("decoded (%d, %x, %v)", tag, got, err)
	}
	if _, _, err := decodeDataBody(body[:dataHeaderLen-1]); err == nil {
		t.Fatal("short data body accepted")
	}
}

// TestFrameReaderReusesBuffer pins the reader's two properties the link
// relies on: small frames share one buffer, and a body is only valid
// until the next read.
func TestFrameReaderReusesBuffer(t *testing.T) {
	stream := append(frameBytes(frPing, encodeU64Body(1)), frameBytes(frPing, encodeU64Body(2))...)
	fr := frameReader{r: bytes.NewReader(stream)}
	_, first, err := fr.read()
	if err != nil {
		t.Fatal(err)
	}
	_, second, err := fr.read()
	if err != nil {
		t.Fatal(err)
	}
	if &first[0] != &second[0] {
		t.Fatal("second frame did not reuse the first frame's buffer")
	}
	if v, _ := decodeU64Body(second); v != 2 {
		t.Fatalf("second frame decoded %d", v)
	}
}

// TestReadFrameCorruptLengthBoundedAlloc: a header declaring a gigabyte
// followed by a few bytes must fail after allocating about one chunk, a
// frame spanning several chunks must still arrive whole, and a length
// past maxFrame must fail before any of its body is read.
func TestReadFrameCorruptLengthBoundedAlloc(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], maxFrame)
	stream := append(hdr[:], make([]byte, 100)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader(stream))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated gigabyte frame: %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*readChunk {
		t.Fatalf("corrupt length allocated %d bytes", got)
	}

	big := make([]byte, 2*readChunk+readChunk/2)
	for i := range big {
		big[i] = byte(i * 7)
	}
	kind, body, err := readFrame(bytes.NewReader(frameBytes(frTable, big)))
	if err != nil || kind != frTable || !bytes.Equal(body, big) {
		t.Fatalf("multi-chunk frame: kind %d, %d bytes, %v", kind, len(body), err)
	}
	binary.LittleEndian.PutUint32(hdr[:], maxFrame+1)
	if _, _, err := readFrame(bytes.NewReader(hdr[:])); err == nil || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("frame beyond maxFrame: %v, want a length error before any body read", err)
	}
}

// FuzzReadFrame feeds arbitrary byte streams to the frame reader: it
// must never panic, never return more than arrived, and never hold a
// buffer out of proportion to the bytes it was given.
func FuzzReadFrame(f *testing.F) {
	for kind, bodies := range seedBodies(f) {
		for _, body := range bodies {
			f.Add(frameBytes(kind, body))
		}
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0x3f, frData, 1, 2, 3}) // gigabyte length, 4 bytes
	f.Add([]byte{0, 0, 0, 0})                              // zero length
	f.Fuzz(func(t *testing.T, stream []byte) {
		fr := frameReader{r: bytes.NewReader(stream)}
		for {
			kind, body, err := fr.read()
			if err != nil {
				break
			}
			if len(body) > len(stream) {
				t.Fatalf("frame of %d bytes from a %d-byte stream", len(body), len(stream))
			}
			if kind == frData {
				if _, payload, err := decodeDataBody(body); err == nil {
					DecodePayload(payload)
				}
			}
		}
		if c := cap(fr.buf); c > 2*(len(stream)+readChunk) {
			t.Fatalf("reader holds %d bytes after a %d-byte stream", c, len(stream))
		}
	})
}

// FuzzDecodeDataBody: any body either fails to decode or re-encodes to
// the same header bytes, and its payload never panics the codec.
func FuzzDecodeDataBody(f *testing.F) {
	for _, bodies := range seedBodies(f) {
		for _, body := range bodies {
			f.Add(body)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		tag, payload, err := decodeDataBody(body)
		if err != nil {
			if len(body) >= dataHeaderLen {
				t.Fatalf("body of %d bytes rejected: %v", len(body), err)
			}
			return
		}
		hdr := appendDataHeader(nil, tag, len(payload))
		if !bytes.Equal(hdr[5:], body[:dataHeaderLen]) || len(payload) != len(body)-dataHeaderLen {
			t.Fatalf("tag %d does not re-encode to %x", tag, body[:dataHeaderLen])
		}
		if data, err := DecodePayload(payload); err == nil {
			again, err := EncodePayload(nil, data)
			if err != nil || !bytes.Equal(again, payload) {
				t.Fatalf("payload %x re-encoded to %x (%v)", payload, again, err)
			}
		}
	})
}
