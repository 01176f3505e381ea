package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
)

// ckptFixture runs a small plasma a few steps and returns its v3
// checkpoint bytes together with the config that produced them.
func ckptFixture(t testing.TB) (Config, []byte) {
	t.Helper()
	cfg := periodicPlasma(16, 0.2, 0.05, 8, 1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(5)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return cfg, buf.Bytes()
}

func TestCheckpointCRCDetectsBitFlip(t *testing.T) {
	cfg, ckpt := ckptFixture(t)
	// Flip one bit mid-file (inside the state payload, well past the
	// header) — structurally valid, numerically corrupt.
	flipped := append([]byte(nil), ckpt...)
	flipped[len(flipped)/2] ^= 0x10

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Restore(bytes.NewReader(flipped))
	if err == nil {
		t.Fatal("restore accepted a bit-flipped checkpoint")
	}
	if !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("err = %v, want a CRC mismatch", err)
	}
}

func TestCheckpointRejectsTruncated(t *testing.T) {
	cfg, ckpt := ckptFixture(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(ckpt) * 3 / 4, len(ckpt) - 2, 7} {
		err := s.Restore(bytes.NewReader(ckpt[:cut]))
		if err == nil {
			t.Fatalf("restore accepted a checkpoint truncated to %d/%d bytes", cut, len(ckpt))
		}
		if !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("truncation at %d: err = %v, want mention of truncation", cut, err)
		}
	}
}

// corruptCount returns the fixture with bit 24 of its one species'
// particle count flipped (128 → 16 777 344 particles): structurally a
// checkpoint, promising far more particles than the file holds.
func corruptCount(t testing.TB, ckpt []byte, n int) []byte {
	t.Helper()
	// The count is the u64 before the n 36-byte particle records and
	// the 4-byte CRC trailer.
	off := len(ckpt) - 4 - 36*n - 8
	if got := binary.LittleEndian.Uint64(ckpt[off:]); got != uint64(n) {
		t.Fatalf("count at offset %d reads %d, want %d", off, got, n)
	}
	bad := append([]byte(nil), ckpt...)
	bad[off+3] ^= 0x01
	return bad
}

// TestCheckpointRejectsCorruptCount: a flipped high bit in a particle
// count is reported as the truncation it is, without first allocating
// the particles the count promises.
func TestCheckpointRejectsCorruptCount(t *testing.T) {
	cfg, ckpt := ckptFixture(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := corruptCount(t, ckpt, s.TotalParticles())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = s.Restore(bytes.NewReader(bad))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "checkpoint truncated or unreadable") {
		t.Fatalf("err = %v, want a truncation error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("Restore allocated %d MB before rejecting the count", grew>>20)
	}
}

// TestCheckpointRejectsOldVersions: v1 (no checksum) and v2 (no layout)
// files are refused by name, so everything Restore accepts is
// CRC-verified; an unrelated file is still "not a checkpoint".
func TestCheckpointRejectsOldVersions(t *testing.T) {
	cfg, ckpt := ckptFixture(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	body := ckpt[len(checkpointMagic):]
	for _, magic := range []string{"GOVPIC-CKPT-1\n", "GOVPIC-CKPT-2\n"} {
		old := append([]byte(magic), body...)
		err := s.Restore(bytes.NewReader(old))
		if err == nil || !strings.Contains(err.Error(), "unsupported checkpoint version") {
			t.Fatalf("%q: err = %v, want an unsupported-version rejection", magic, err)
		}
	}
	err = s.Restore(bytes.NewReader(append([]byte("NOT-A-CKPT-AT-ALL\n"), body...)))
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("foreign file: err = %v, want bad magic", err)
	}
}

func TestRestoreRejectsGeometryMismatch(t *testing.T) {
	cfg, ckpt := ckptFixture(t)

	// Different global cell count.
	wide := cfg
	wide.NX = 32
	s, err := New(wide)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(bytes.NewReader(ckpt)); err == nil {
		t.Fatal("accepted checkpoint with different nx")
	} else if !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("nx mismatch: err = %v", err)
	}

	// Different rank count, same global grid.
	split := cfg
	split.NRanks = 2
	s2, err := New(split)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Restore(bytes.NewReader(ckpt)); err == nil {
		t.Fatal("accepted checkpoint with different rank count")
	} else if !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("rank mismatch: err = %v", err)
	}
}

// FuzzCheckpointRestore: Restore never panics on arbitrary bytes, and
// accepts a file only if it begins with the fixture's unmodified bytes
// — the CRC trailer covers everything it reads, and a suffix past the
// trailer is never read. One simulation serves every input: a restore
// overwrites all the state a checkpoint carries, and the one-rank
// fixture has no x-cuts a file could move.
func FuzzCheckpointRestore(f *testing.F) {
	cfg, ckpt := ckptFixture(f)
	s, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ckpt)
	for _, cut := range []int{len(ckpt) * 3 / 4, len(ckpt) - 2, 7} {
		f.Add(ckpt[:cut])
	}
	for _, magic := range []string{"GOVPIC-CKPT-1\n", "GOVPIC-CKPT-2\n"} {
		f.Add(append([]byte(magic), ckpt[len(checkpointMagic):]...))
	}
	f.Add(corruptCount(f, ckpt, s.TotalParticles()))
	f.Fuzz(func(t *testing.T, data []byte) {
		unmodified := bytes.HasPrefix(data, ckpt)
		if err := s.Restore(bytes.NewReader(data)); (err == nil) != unmodified {
			t.Fatalf("Restore: err = %v on %d bytes (fixture prefix: %v)", err, len(data), unmodified)
		}
	})
}
