package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"govpic/internal/balance"
	"govpic/internal/mp"
)

// ckptFixture runs a small plasma five steps on 1 or 2 ranks, sampling
// the energy at the start and after every step, and returns its
// checkpoint bytes together with the config that produced them. The
// 2-rank world balances online and has had its x-cuts moved to
// [0 6 16], so its file's layout differs from a fresh world's.
func ckptFixture(t testing.TB, ranks int) (Config, []byte) {
	t.Helper()
	cfg := periodicPlasma(16, 0.2, 0.05, 8, ranks)
	if ranks > 1 {
		cfg.Balance.Mode = balance.Online
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ranks > 1 {
		s.each(func(rs *RankSim) { rs.Rank.reshapeX(&rs.Cfg, []int{0, 6, 16}) })
	}
	Collect(s, (*RankSim).Sample)
	for i := 0; i < 5; i++ {
		s.Step()
		Collect(s, (*RankSim).Sample)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return cfg, buf.Bytes()
}

// historySpan returns where a checkpoint's history section (its sample
// count, then the samples) starts and ends.
func historySpan(t testing.TB, ckpt []byte) (start, end int) {
	t.Helper()
	c := &cursor{b: ckpt}
	hd, err := readCheckpointHeader(c)
	if err != nil {
		t.Fatal(err)
	}
	end = len(ckpt) - len(c.b)
	return end - 8 - 8*len(hd.history)*(6+hd.nSpecies), end
}

// TestCheckpointBytesPinned pins the fixtures' files — their length
// and CRC trailer (the CRC32 of every byte before it) — and that they
// hold the six samples. v6 is v5 minus the ghost planes: the v5 files
// these fixtures wrote, with each rank's ghost voxels × 7 arrays × 4
// bytes cut out and the magic and trailer redone, were these files byte
// for byte when the format changed (EXPERIMENTS S71; the fixtures are
// periodic, so no payload has a Mur section).
func TestCheckpointBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		ranks, size int
		crc         uint32
	}{{1, 5562, 0xc278d0f0}, {2, 5586, 0xca990a2d}} {
		_, ckpt := ckptFixture(t, tc.ranks)
		start, _ := historySpan(t, ckpt)
		if n := binary.LittleEndian.Uint64(ckpt[start:]); n != 6 {
			t.Fatalf("%d-rank checkpoint holds %d samples, want 6", tc.ranks, n)
		}
		got := binary.LittleEndian.Uint32(ckpt[len(ckpt)-4:])
		if len(ckpt) != tc.size || got != tc.crc {
			t.Errorf("%d-rank checkpoint: %d bytes, CRC %08x; want %d bytes, CRC %08x",
				tc.ranks, len(ckpt), got, tc.size, tc.crc)
		}
	}
}

// retrail rewrites a checkpoint's CRC trailer to match its edited body.
func retrail(ckpt []byte) []byte {
	binary.LittleEndian.PutUint32(ckpt[len(ckpt)-4:], crc32.ChecksumIEEE(ckpt[:len(ckpt)-4]))
	return ckpt
}

// TestRestoreRejectedOnEveryMember: on a 2-rank world, a bit-flipped,
// truncated, other-geometry or other-y-cuts file, or a failing reader,
// makes every member's Restore return the same error, and leaves every
// member's state, step count and x-cuts as they were — the bit-flipped
// file carries moved x-cuts, so adopting them before the checks would
// show.
func TestRestoreRejectedOnEveryMember(t *testing.T) {
	cfg, ckpt := ckptFixture(t, 2)
	flipped := append([]byte(nil), ckpt...)
	flipped[len(flipped)/2] ^= 0x10
	wide := cfg
	wide.NX = 32
	wideCkpt := checkpointBytes(t, mustNew(t, wide))

	// A 1×2×1 world, whose file's y-cuts [0 4 8] become [0 3 8] (the
	// middle cut is the u64 after the header, the shape and two x-cuts).
	ySplit := spikePlasma(4, 8, 1, 4, 2)
	yCkpt := checkpointBytes(t, mustNew(t, ySplit))
	off := len(checkpointMagic) + 8*(7+3+2+1)
	if got := binary.LittleEndian.Uint64(yCkpt[off:]); got != 4 {
		t.Fatalf("middle y-cut at offset %d reads %d, want 4", off, got)
	}
	binary.LittleEndian.PutUint64(yCkpt[off:], 3)
	yCkpt = retrail(yCkpt)

	for _, tc := range []struct {
		name string
		cfg  Config
		src  io.Reader
		want string
	}{
		{"bit flip", cfg, bytes.NewReader(flipped), "CRC"},
		{"truncation", cfg, bytes.NewReader(ckpt[:len(ckpt)*3/4]), "truncated"},
		{"geometry", cfg, bytes.NewReader(wideCkpt), "does not match"},
		{"y-cuts", ySplit, bytes.NewReader(yCkpt), "only x-cuts may differ"},
		{"read error", cfg, iotest.ErrReader(errors.New("disk gone")), "disk gone"},
	} {
		s := mustNew(t, tc.cfg)
		s.Run(2)
		Collect(s, (*RankSim).Sample)
		crcs, cuts, hist := s.StateCRCs(), s.CutsX(), s.History()
		errs := make([]error, len(s.Ranks))
		// One reader for the world: only rank 0 may touch it (the race
		// detector sees a peer that does).
		s.each(func(rs *RankSim) { errs[rs.comm.Rank()] = rs.Restore(tc.src) })
		for r, err := range errs {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: member %d: err = %v, want %q", tc.name, r, err, tc.want)
			} else if err.Error() != errs[0].Error() {
				t.Errorf("%s: member %d: err = %v, member 0's %v", tc.name, r, err, errs[0])
			}
		}
		if got := s.StateCRCs(); !equalCRCs(got, crcs) {
			t.Errorf("%s: CRCs %08x after the rejected restore, %08x before", tc.name, got, crcs)
		}
		for r, rs := range s.sims {
			if rs.StepCount() != 2 || !slices.Equal(rs.CutsX(), cuts) {
				t.Errorf("%s: member %d at step %d on x-cuts %v, want step 2 on %v",
					tc.name, r, rs.StepCount(), rs.CutsX(), cuts)
			}
			if !reflect.DeepEqual(rs.History, hist) {
				t.Errorf("%s: member %d history %+v after the rejected restore, %+v before", tc.name, r, rs.History, hist)
			}
		}
	}
}

func TestCheckpointCRCDetectsBitFlip(t *testing.T) {
	cfg, ckpt := ckptFixture(t, 1)
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
	cfg, ckpt := ckptFixture(t, 1)
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

// withU64 returns a copy of ckpt with the u64 at off set to v and the
// CRC trailer recomputed, so only the parse can reject it.
func withU64(ckpt []byte, off int, v uint64) []byte {
	bad := append([]byte(nil), ckpt...)
	binary.LittleEndian.PutUint64(bad[off:], v)
	return retrail(bad)
}

// corruptHistoryCount returns the fixture promising 2^20 samples, far
// more than the bytes after its count hold (and, sized first, ~90 MB).
func corruptHistoryCount(t testing.TB, ckpt []byte) []byte {
	t.Helper()
	start, _ := historySpan(t, ckpt)
	return withU64(ckpt, start, 1<<20)
}

// TestCheckpointRejectsCorruptCount: a count no file of this size could
// hold — a particle count with a flipped high bit, a negative or huge
// species count (which would divide by zero or size a negative
// allocation), a sample count past the end of the file — is reported as
// the truncation it is, by Restore and (for the counts it reads) by
// CheckpointHistory, without first allocating what the count promises.
func TestCheckpointRejectsCorruptCount(t *testing.T) {
	cfg, ckpt := ckptFixture(t, 1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	species := len(checkpointMagic) + 8*4 // after the grid and rank count
	for _, tc := range []struct {
		name    string
		bad     []byte
		history bool // CheckpointHistory reads the count too
	}{
		{"particle count", corruptCount(t, ckpt, s.TotalParticles()), false},
		{"species count -6", withU64(ckpt, species, uint64(1<<64-6)), true},
		{"species count -5", withU64(ckpt, species, uint64(1<<64-5)), true},
		{"species count 2^40", withU64(ckpt, species, 1<<40), true},
		{"sample count", corruptHistoryCount(t, ckpt), true},
	} {
		readers := map[string]func() error{
			"Restore": func() error { return s.Restore(bytes.NewReader(tc.bad)) },
		}
		if tc.history {
			readers["CheckpointHistory"] = func() error {
				_, err := CheckpointHistory(bytes.NewReader(tc.bad))
				return err
			}
		}
		for name, read := range readers {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := read()
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "checkpoint truncated or unreadable") {
				t.Errorf("%s, %s: err = %v, want a truncation error", tc.name, name, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
				t.Errorf("%s, %s: allocated %d MB before rejecting the count", tc.name, name, grew>>20)
			}
		}
	}
}

// oldMagics are the magic lines of every refused format version.
var oldMagics = []string{"GOVPIC-CKPT-1\n", "GOVPIC-CKPT-2\n", "GOVPIC-CKPT-3\n", "GOVPIC-CKPT-4\n", "GOVPIC-CKPT-5\n"}

// TestCheckpointRejectsOldVersions: v1 (no checksum), v2 (no layout),
// v3 (no history), v4 (J arrays in every payload) and v5 (every ghost
// plane) files are refused by name, so everything Restore accepts is
// CRC-verified, carries its history and is laid out as writeState
// writes; an unrelated file is still "not a checkpoint".
func TestCheckpointRejectsOldVersions(t *testing.T) {
	cfg, ckpt := ckptFixture(t, 1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	body := ckpt[len(checkpointMagic):]
	for _, magic := range oldMagics {
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
	cfg, ckpt := ckptFixture(t, 1)

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

// resume builds cfg's in-process world from ckpt the way dist.Member
// does, every member a ResumeRankSim on its Comm with one reader only
// rank 0 touches, and returns it with each member's error.
func resume(cfg Config, ckpt []byte, setup func(*Rank) error) (*Simulation, []error) {
	r := bytes.NewReader(ckpt)
	return newWorld(cfg, func(c *mp.Comm) (*RankSim, error) { return ResumeRankSim(cfg, c, r, setup) })
}

// mustResume resumes cfg's world from ckpt or fails the test.
func mustResume(t testing.TB, cfg Config, ckpt []byte) *Simulation {
	t.Helper()
	s, errs := resume(cfg, ckpt, nil)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("member %d: %v", r, err)
		}
	}
	return s
}

// FuzzCheckpointRestore: Restore, ResumeRankSim and CheckpointHistory
// never panic on arbitrary bytes, and a world accepts a file only if it
// begins with its own fixture's unmodified bytes — the CRC trailer
// covers everything it reads, and a suffix past the trailer is never
// read. Every input goes to a 1-rank and a 2-rank world, both restored
// in place and resumed from scratch; a resume the file fails returns
// one error on every member. One in-place world of each serves every
// input: it is resumed from its fixture, so it stands on the fixture's
// x-cuts, a restore overwrites all the state a checkpoint carries and a
// rejected file changes nothing.
func FuzzCheckpointRestore(f *testing.F) {
	type world struct {
		cfg  Config
		s    *Simulation
		ckpt []byte
	}
	var worlds []world
	for _, ranks := range []int{1, 2} {
		cfg, ckpt := ckptFixture(f, ranks)
		worlds = append(worlds, world{cfg, mustResume(f, cfg, ckpt), ckpt})
		f.Add(ckpt)
		for _, cut := range []int{len(ckpt) * 3 / 4, len(ckpt) - 2, 7} {
			f.Add(ckpt[:cut])
		}
		for _, magic := range oldMagics {
			f.Add(append([]byte(magic), ckpt[len(checkpointMagic):]...))
		}
	}
	f.Add(corruptCount(f, worlds[0].ckpt, worlds[0].s.TotalParticles()))
	f.Add(corruptHistoryCount(f, worlds[1].ckpt))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, w := range worlds {
			unmodified := bytes.HasPrefix(data, w.ckpt)
			if err := w.s.Restore(bytes.NewReader(data)); (err == nil) != unmodified {
				t.Fatalf("%d-rank Restore: err = %v on %d bytes (fixture prefix: %v)", len(w.s.Ranks), err, len(data), unmodified)
			}
			_, errs := resume(w.cfg, data, nil)
			for r, err := range errs {
				if (err == nil) != unmodified || err != nil && err.Error() != errs[0].Error() {
					t.Fatalf("%d-rank resume, member %d: err = %v, member 0's %v on %d bytes (fixture prefix: %v)",
						len(errs), r, err, errs[0], len(data), unmodified)
				}
			}
		}
		CheckpointHistory(bytes.NewReader(data))
	})
}
