package transport

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"govpic/internal/mp"
	"govpic/internal/push"
)

// randF32 returns arbitrary bit patterns, including NaNs, infinities
// and denormals — the codec must round-trip bits, not values.
func randF32(rng *rand.Rand) float32 { return math.Float32frombits(rng.Uint32()) }

func randF64(rng *rand.Rand) float64 { return math.Float64frombits(rng.Uint64()) }

func roundTrip(t *testing.T, data any) any {
	t.Helper()
	// TCP.Send's buffer: the type byte and count, then the payload.
	size := 5 + mp.PayloadBytes(data)
	buf, err := EncodePayload(make([]byte, 0, size), data)
	if err != nil {
		t.Fatalf("encode %T: %v", data, err)
	}
	if len(buf) > size {
		t.Fatalf("%T encoded %d bytes, past Send's %d-byte buffer", data, len(buf), size)
	}
	out, err := DecodePayload(buf)
	if err != nil {
		t.Fatalf("decode %T: %v", data, err)
	}
	return out
}

// bitsEqual compares float slices by bit pattern (NaN-safe).
func bitsEqual32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func bitsEqual64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestCodecScalars(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		f := randF64(rng)
		got := roundTrip(t, f).(float64)
		if math.Float64bits(got) != math.Float64bits(f) {
			t.Fatalf("float64 %x round-tripped to %x", math.Float64bits(f), math.Float64bits(got))
		}
		n := int64(rng.Uint64())
		if got := roundTrip(t, n).(int64); got != n {
			t.Fatalf("int64 %d round-tripped to %d", n, got)
		}
	}
}

func TestCodecFloatSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Sizes cover empty, tiny, odd, and a full ghost plane of a large
	// local tile (256×256 nodes × 3 components).
	for _, n := range []int{0, 1, 7, 1024, 3 * 257 * 257} {
		a32 := make([]float32, n)
		a64 := make([]float64, n)
		for i := range a32 {
			a32[i] = randF32(rng)
			a64[i] = randF64(rng)
		}
		if got := roundTrip(t, a32).([]float32); !bitsEqual32(got, a32) {
			t.Fatalf("[]float32 len %d: bits differ after round trip", n)
		}
		if got := roundTrip(t, a64).([]float64); !bitsEqual64(got, a64) {
			t.Fatalf("[]float64 len %d: bits differ after round trip", n)
		}
	}
}

func TestCodecOutgoingBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 13, 4096} {
		batch := make(push.OutgoingBatch, n)
		for i := range batch {
			o := &batch[i]
			o.P.Dx, o.P.Dy, o.P.Dz = randF32(rng), randF32(rng), randF32(rng)
			o.P.Voxel = int32(rng.Uint32())
			o.P.Ux, o.P.Uy, o.P.Uz = randF32(rng), randF32(rng), randF32(rng)
			o.P.W = randF32(rng)
			o.DispX, o.DispY, o.DispZ = randF32(rng), randF32(rng), randF32(rng)
		}
		got := roundTrip(t, batch).(push.OutgoingBatch)
		if len(got) != n {
			t.Fatalf("batch len %d round-tripped to %d", n, len(got))
		}
		for i := range batch {
			a, b := batch[i], got[i]
			same := math.Float32bits(a.P.Dx) == math.Float32bits(b.P.Dx) &&
				math.Float32bits(a.P.Dy) == math.Float32bits(b.P.Dy) &&
				math.Float32bits(a.P.Dz) == math.Float32bits(b.P.Dz) &&
				a.P.Voxel == b.P.Voxel &&
				math.Float32bits(a.P.Ux) == math.Float32bits(b.P.Ux) &&
				math.Float32bits(a.P.Uy) == math.Float32bits(b.P.Uy) &&
				math.Float32bits(a.P.Uz) == math.Float32bits(b.P.Uz) &&
				math.Float32bits(a.P.W) == math.Float32bits(b.P.W) &&
				math.Float32bits(a.DispX) == math.Float32bits(b.DispX) &&
				math.Float32bits(a.DispY) == math.Float32bits(b.DispY) &&
				math.Float32bits(a.DispZ) == math.Float32bits(b.DispZ)
			if !same {
				t.Fatalf("batch[%d] differs after round trip: %+v vs %+v", i, a, b)
			}
		}
	}
}

func TestCodecBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 255, 65536} {
		b := make([]byte, n)
		rng.Read(b)
		got := roundTrip(t, b).([]byte)
		if !reflect.DeepEqual(append([]byte(nil), b...), got) {
			t.Fatalf("[]byte len %d differs after round trip", n)
		}
	}
}

func TestCodecUnsupportedType(t *testing.T) {
	for _, bad := range []any{nil, "string", 42, []int{1}, map[string]int{}} {
		if _, err := EncodePayload(nil, bad); err == nil {
			t.Fatalf("EncodePayload(%T) should fail", bad)
		}
	}
}

func TestCodecRejectsCorruptPayloads(t *testing.T) {
	good, err := EncodePayload(nil, []float32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":           {},
		"unknown type":    {99, 0, 0, 0, 0},
		"truncated count": {ptF32s, 1},
		"short body":      good[:len(good)-1],
		"long body":       append(append([]byte(nil), good...), 0),
	}
	for name, b := range cases {
		if _, err := DecodePayload(b); err == nil {
			t.Errorf("%s: DecodePayload should fail", name)
		}
	}
	// A count claiming more elements than any frame could carry.
	huge := []byte{ptF64s, 0xff, 0xff, 0xff, 0x7f}
	if _, err := DecodePayload(huge); err == nil {
		t.Error("oversized count: DecodePayload should fail")
	}
}

// TestCodecFuzzSlices hammers the decoder with random truncations of
// valid encodings: none may panic and all must error.
func TestCodecFuzzSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := []any{
		[]float32{1.5, -2.5, float32(math.NaN())},
		[]float64{math.Inf(1), 0, -0.0},
		push.OutgoingBatch{{}},
		[]byte{1, 2, 3, 4, 5},
		int64(-7),
		3.14,
	}
	for _, v := range vals {
		enc, err := EncodePayload(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			cut := rng.Intn(len(enc))
			if _, err := DecodePayload(enc[:cut]); err == nil && cut != len(enc) {
				// A truncation may only succeed if it is still exactly
				// self-consistent, which the length checks forbid.
				t.Fatalf("%T truncated to %d bytes decoded without error", v, cut)
			}
		}
	}
}
