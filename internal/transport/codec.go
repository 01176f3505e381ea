// Package transport provides network fabrics for the mp substrate: a
// TCP mesh with length-prefixed binary framing, a compact codec for the
// payload types the domain layer exchanges, per-link send/receive
// queues, and heartbeat-based failure detection. A rendezvous layer
// bootstraps the mesh: rank 0 listens, peers dial in and exchange a
// rank→address table, and every link is connected once. The links are
// crash-only: any break is an attributed *mp.PeerDeadError, and the
// recovery is to rerun from the last checkpoint. The transport is
// provably transparent: a decomposed run over TCP produces
// bit-identical state to the same run on the in-process channel world.
package transport

import (
	"encoding/binary"
	"fmt"
	"math"

	"govpic/internal/push"
)

// Payload type ids on the wire. The set is closed: exactly what domain
// exchanges (ghost planes, particle batches) plus the collective
// scalars and an opaque blob for gathers of serialized reports.
const (
	ptFloat64 byte = iota + 1
	ptInt64
	ptF32s
	ptF64s
	ptOutgoing
	ptBytes
)

// maxElems caps decoded element counts so a corrupt or hostile length
// prefix cannot drive an allocation larger than the frame that carried
// it could justify.
const maxElems = 1 << 28

// EncodePayload appends data's compact wire form to buf and returns the
// extended slice. Float bit patterns round-trip exactly (NaNs
// included); an unsupported payload type is an error — in-process-only
// payloads must never reach a network transport. A *push.OutgoingBatch
// (a persistent particle plan's slot) has its batch's wire form, and
// decodes to the value form.
func EncodePayload(buf []byte, data any) ([]byte, error) {
	switch v := data.(type) {
	case float64:
		buf = append(buf, ptFloat64)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	case int64:
		buf = append(buf, ptInt64)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	case []float32:
		buf = append(buf, ptF32s)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
		for _, f := range v {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(f))
		}
	case []float64:
		buf = append(buf, ptF64s)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
		for _, f := range v {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
	case *push.OutgoingBatch:
		return EncodePayload(buf, *v)
	case push.OutgoingBatch:
		buf = append(buf, ptOutgoing)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
		for i := range v {
			o := &v[i]
			for _, w := range [...]uint32{
				math.Float32bits(o.P.Dx), math.Float32bits(o.P.Dy), math.Float32bits(o.P.Dz),
				uint32(o.P.Voxel),
				math.Float32bits(o.P.Ux), math.Float32bits(o.P.Uy), math.Float32bits(o.P.Uz),
				math.Float32bits(o.P.W),
				math.Float32bits(o.DispX), math.Float32bits(o.DispY), math.Float32bits(o.DispZ),
			} {
				buf = binary.LittleEndian.AppendUint32(buf, w)
			}
		}
	case []byte:
		buf = append(buf, ptBytes)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
		buf = append(buf, v...)
	default:
		return nil, fmt.Errorf("transport: unencodable payload type %T", data)
	}
	return buf, nil
}

// DecodePayload parses one payload produced by EncodePayload,
// validating that the buffer holds exactly the declared content.
func DecodePayload(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("transport: empty payload")
	}
	typ, b := b[0], b[1:]
	switch typ {
	case ptFloat64:
		if len(b) != 8 {
			return nil, fmt.Errorf("transport: float64 payload has %d bytes", len(b))
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
	case ptInt64:
		if len(b) != 8 {
			return nil, fmt.Errorf("transport: int64 payload has %d bytes", len(b))
		}
		return int64(binary.LittleEndian.Uint64(b)), nil
	case ptF32s:
		n, b, err := decodeCount(b, 4)
		if err != nil {
			return nil, err
		}
		out := make([]float32, n)
		for i := range out {
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}
		return out, nil
	case ptF64s:
		n, b, err := decodeCount(b, 8)
		if err != nil {
			return nil, err
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		return out, nil
	case ptOutgoing:
		n, b, err := decodeCount(b, push.OutgoingWireBytes)
		if err != nil {
			return nil, err
		}
		out := make(push.OutgoingBatch, n)
		for i := range out {
			o := &out[i]
			w := func(j int) uint32 { return binary.LittleEndian.Uint32(b[push.OutgoingWireBytes*i+4*j:]) }
			o.P.Dx, o.P.Dy, o.P.Dz = math.Float32frombits(w(0)), math.Float32frombits(w(1)), math.Float32frombits(w(2))
			o.P.Voxel = int32(w(3))
			o.P.Ux, o.P.Uy, o.P.Uz = math.Float32frombits(w(4)), math.Float32frombits(w(5)), math.Float32frombits(w(6))
			o.P.W = math.Float32frombits(w(7))
			o.DispX, o.DispY, o.DispZ = math.Float32frombits(w(8)), math.Float32frombits(w(9)), math.Float32frombits(w(10))
		}
		return out, nil
	case ptBytes:
		n, b, err := decodeCount(b, 1)
		if err != nil {
			return nil, err
		}
		return append([]byte(nil), b[:n]...), nil
	}
	return nil, fmt.Errorf("transport: unknown payload type %d", typ)
}

// decodeCount reads the u32 element count and validates the remaining
// buffer holds exactly count×elemSize bytes.
func decodeCount(b []byte, elemSize int) (int, []byte, error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("transport: truncated payload header")
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n > maxElems {
		return 0, nil, fmt.Errorf("transport: payload count %d too large", n)
	}
	b = b[4:]
	if len(b) != n*elemSize {
		return 0, nil, fmt.Errorf("transport: payload has %d bytes, want %d×%d", len(b), n, elemSize)
	}
	return n, b, nil
}
