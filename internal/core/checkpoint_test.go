package core

import (
	"bytes"
	"strings"
	"testing"
)

// ckptFixture runs a small plasma a few steps and returns its v3
// checkpoint bytes together with the config that produced them.
func ckptFixture(t *testing.T) (Config, []byte) {
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
		if _, _, err := s.Resume(bytes.NewReader(old)); err == nil {
			t.Fatalf("%q: Resume accepted an old-version file", magic)
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
