package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"strings"

	"govpic/internal/domain"
	"govpic/internal/grid"
	"govpic/internal/particle"
)

// Checkpointing serializes the complete dynamic state — fields and
// particles of every rank plus the step/time counters — so a run can be
// stopped and resumed bit-exactly (the evolution is deterministic and
// the RNG is only used at load time). The configuration itself is not
// stored; Restore validates that the receiving simulation's geometry
// matches.
//
// The format is: the magic line; a header of little-endian u64s (global
// grid, rank count, species count, step) and the f64 time; the rank
// layout (decomposition shape, then the x/y/z partition-plane cuts), so
// a load-balanced run resumes on the x-cuts it was written under; each
// rank's payload in rank order (writeState); and a trailing
// little-endian CRC32 (IEEE) of every preceding byte, so a truncated or
// bit-flipped file is rejected instead of silently resumed from. Files
// with an older magic carry no checksum or no layout and are refused.

const checkpointMagic = "GOVPIC-CKPT-3\n"

// GeometryMismatchError reports a checkpoint whose global grid or
// species count differs from the receiving simulation's: the file
// describes a different physical problem.
type GeometryMismatchError struct {
	FileNX, FileNY, FileNZ, FileSpecies int
	WantNX, WantNY, WantNZ, WantSpecies int
}

func (e *GeometryMismatchError) Error() string {
	return fmt.Sprintf("core: checkpoint geometry %dx%dx%d/%d species does not match simulation %dx%dx%d/%d species",
		e.FileNX, e.FileNY, e.FileNZ, e.FileSpecies, e.WantNX, e.WantNY, e.WantNZ, e.WantSpecies)
}

type cpWriter struct {
	w   io.Writer
	err error
	buf [8]byte
}

func (c *cpWriter) u64(v uint64) {
	if c.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(c.buf[:], v)
	_, c.err = c.w.Write(c.buf[:8])
}

func (c *cpWriter) f64(v float64) { c.u64(math.Float64bits(v)) }

func (c *cpWriter) f32s(a []float32) {
	if c.err != nil {
		return
	}
	for _, v := range a {
		binary.LittleEndian.PutUint32(c.buf[:4], math.Float32bits(v))
		if _, c.err = c.w.Write(c.buf[:4]); c.err != nil {
			return
		}
	}
}

type cpReader struct {
	r   io.Reader
	err error
	buf [8]byte
}

func (c *cpReader) u64() uint64 {
	if c.err != nil {
		return 0
	}
	if _, c.err = io.ReadFull(c.r, c.buf[:8]); c.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(c.buf[:8])
}

func (c *cpReader) f64() float64 { return math.Float64frombits(c.u64()) }

func (c *cpReader) f32s(a []float32) {
	if c.err != nil {
		return
	}
	for i := range a {
		if _, c.err = io.ReadFull(c.r, c.buf[:4]); c.err != nil {
			return
		}
		a[i] = math.Float32frombits(binary.LittleEndian.Uint32(c.buf[:4]))
	}
}

// particle reads one particle record (writeState's gathered AoS form);
// the voxel is returned as stored, for the caller's grid to interpret.
func (c *cpReader) particle() (p particle.Particle) {
	var v [7]float32
	c.f32s(v[:3])
	p.Voxel = int32(uint32(c.u64()))
	c.f32s(v[3:])
	p.Dx, p.Dy, p.Dz, p.Ux, p.Uy, p.Uz, p.W = v[0], v[1], v[2], v[3], v[4], v[5], v[6]
	return p
}

// Checkpoint writes the full dynamic state to w (see the format above).
func (s *Simulation) Checkpoint(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	h := crc32.NewIEEE()
	mw := io.MultiWriter(bw, h)
	if _, err := io.WriteString(mw, checkpointMagic); err != nil {
		return err
	}
	c := &cpWriter{w: mw}
	c.u64(uint64(s.Cfg.NX))
	c.u64(uint64(s.Cfg.NY))
	c.u64(uint64(s.Cfg.NZ))
	c.u64(uint64(len(s.Ranks)))
	c.u64(uint64(len(s.Cfg.Species)))
	c.u64(uint64(s.StepCount()))
	c.f64(s.Time())
	writeLayout(c, s.Ranks[0].D.Cfg.Layout)
	for _, rk := range s.Ranks {
		rk.writeState(c)
	}
	if c.err != nil {
		return c.err
	}
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], h.Sum32())
	if _, err := bw.Write(tr[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// writeLayout serializes the rank layout.
func writeLayout(c *cpWriter, lay grid.Layout) {
	c.u64(uint64(lay.Dec.PX))
	c.u64(uint64(lay.Dec.PY))
	c.u64(uint64(lay.Dec.PZ))
	for _, cuts := range [][]int{lay.CX, lay.CY, lay.CZ} {
		for _, v := range cuts {
			c.u64(uint64(v))
		}
	}
}

// writeState serializes this rank's dynamic state — fields, background
// and particles — in the canonical checkpoint order.
func (rk *Rank) writeState(c *cpWriter) {
	f := rk.D.F
	for _, a := range [][]float32{f.Ex, f.Ey, f.Ez, f.Bx, f.By, f.Bz, f.Jx, f.Jy, f.Jz} {
		c.f32s(a)
	}
	if rk.rho0 != nil {
		c.u64(1)
		c.f32s(rk.rho0)
	} else {
		c.u64(0)
	}
	for _, sp := range rk.Species {
		n := sp.Buf.N()
		c.u64(uint64(n))
		// Particles serialize in gathered AoS form in index order, so the
		// byte stream (and hence StateCRC) is invariant under the storage
		// layout.
		for i := 0; i < n; i++ {
			p := sp.Buf.At(i)
			c.f32s([]float32{p.Dx, p.Dy, p.Dz})
			c.u64(uint64(uint32(p.Voxel)))
			c.f32s([]float32{p.Ux, p.Uy, p.Uz, p.W})
		}
	}
}

// readState is writeState's mirror: it replaces this rank's fields,
// background and particles with the next payload of c, which must have
// been written on a tile of the same shape. A read error stays in c for
// the caller to report.
func (rk *Rank) readState(c *cpReader) {
	f := rk.D.F
	for _, a := range [][]float32{f.Ex, f.Ey, f.Ez, f.Bx, f.By, f.Bz, f.Jx, f.Jy, f.Jz} {
		c.f32s(a)
	}
	if c.u64() == 1 {
		if len(rk.rho0) != rk.D.G.NV() {
			rk.rho0 = make([]float32, rk.D.G.NV())
		}
		c.f32s(rk.rho0)
	} else {
		rk.rho0 = nil
	}
	for _, sp := range rk.Species {
		n := int(c.u64())
		sp.Buf.Clear()
		// A read error ends the loop: a corrupt count must not append
		// the particles it promises first.
		for i := 0; i < n && c.err == nil; i++ {
			if p := c.particle(); c.err == nil {
				sp.Buf.Append(p)
			}
		}
	}
}

// StateCRC fingerprints this rank's dynamic state: the CRC32 (IEEE) of
// its canonical checkpoint serialization. Two ranks computing the same
// tile — whether hosted in one process or across a network — produce
// identical CRCs exactly when their states are bit-identical, which is
// how the distributed smoke tests prove transport transparency.
func (rk *Rank) StateCRC() uint32 {
	h := crc32.NewIEEE()
	rk.writeState(&cpWriter{w: h})
	return h.Sum32()
}

// StateCRCs returns every rank's StateCRC in rank order.
func (s *Simulation) StateCRCs() []uint32 {
	out := make([]uint32, len(s.Ranks))
	for r, rk := range s.Ranks {
		out[r] = rk.StateCRC()
	}
	return out
}

// cpHeader is a checkpoint's parsed preamble: global geometry, time
// counters and the rank layout the per-rank payload is laid out in.
type cpHeader struct {
	nx, ny, nz int
	nSpecies   int
	step       int
	time       float64
	layout     grid.Layout
}

// readCheckpointHeader consumes the magic and header from br and
// returns the parsed preamble, the reader positioned at the first
// rank's payload, and the running checksum verifyTrailer finishes.
func readCheckpointHeader(br *bufio.Reader) (*cpHeader, *cpReader, hash.Hash32, error) {
	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, nil, nil, fmt.Errorf("core: checkpoint truncated: %w", err)
	}
	if string(magic) != checkpointMagic {
		if strings.HasPrefix(string(magic), "GOVPIC-CKPT-") {
			return nil, nil, nil, fmt.Errorf("core: unsupported checkpoint version %q", magic[:len(magic)-1])
		}
		return nil, nil, nil, fmt.Errorf("core: not a checkpoint (bad magic)")
	}
	h := crc32.NewIEEE()
	h.Write(magic)
	c := &cpReader{r: io.TeeReader(br, h)}
	hd := &cpHeader{}
	hd.nx, hd.ny, hd.nz = int(c.u64()), int(c.u64()), int(c.u64())
	nRanks := int(c.u64())
	hd.nSpecies = int(c.u64())
	hd.step = int(c.u64())
	hd.time = c.f64()
	px, py, pz := int(c.u64()), int(c.u64()), int(c.u64())
	if c.err == nil && px*py*pz != nRanks {
		return nil, nil, nil, fmt.Errorf("core: checkpoint layout %dx%dx%d does not cover %d ranks", px, py, pz, nRanks)
	}
	readCuts := func(p int) []int {
		if c.err != nil || p < 1 || p > 1<<20 {
			c.err = fmt.Errorf("implausible slab count %d", p)
			return nil
		}
		cuts := make([]int, p+1)
		for i := range cuts {
			cuts[i] = int(c.u64())
		}
		return cuts
	}
	cx, cy, cz := readCuts(px), readCuts(py), readCuts(pz)
	if c.err != nil {
		return nil, nil, nil, fmt.Errorf("core: checkpoint truncated or unreadable: %w", c.err)
	}
	dec := grid.Decomp{PX: px, PY: py, PZ: pz, GNX: hd.nx, GNY: hd.ny, GNZ: hd.nz}
	lay, err := grid.NewLayout(dec, cx, cy, cz)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: checkpoint layout invalid: %w", err)
	}
	hd.layout = lay
	return hd, c, h, nil
}

// verifyTrailer checks the CRC trailer against the bytes read so far.
func verifyTrailer(br *bufio.Reader, h hash.Hash32) error {
	want := h.Sum32()
	var tr [4]byte
	if _, err := io.ReadFull(br, tr[:]); err != nil {
		return fmt.Errorf("core: checkpoint truncated (missing CRC trailer): %w", err)
	}
	if got := binary.LittleEndian.Uint32(tr[:]); got != want {
		return fmt.Errorf("core: checkpoint corrupt: CRC %08x in file, %08x computed", got, want)
	}
	return nil
}

// checkGeometry compares a checkpoint's global geometry to the
// config's, returning the structured hard error on mismatch.
func checkGeometry(hd *cpHeader, cfg *Config) error {
	if hd.nx != cfg.NX || hd.ny != cfg.NY || hd.nz != cfg.NZ || hd.nSpecies != len(cfg.Species) {
		return &GeometryMismatchError{
			FileNX: hd.nx, FileNY: hd.ny, FileNZ: hd.nz, FileSpecies: hd.nSpecies,
			WantNX: cfg.NX, WantNY: cfg.NY, WantNZ: cfg.NZ, WantSpecies: len(cfg.Species),
		}
	}
	return nil
}

// Restore loads a checkpoint written by a simulation with the same
// geometry and species list, replacing all dynamic state bit-exactly.
// The run resumes on the decomposition the file was written under: when
// the file's layout differs from the simulation's only in its x-cuts
// (an online rebalance moved them), every rank is first rebuilt on the
// recorded cuts in place, so Ranks and World stay valid. A grid or
// species mismatch returns *GeometryMismatchError; any other layout
// difference is an error naming both layouts. Every file is
// checksum-verified; a truncated or bit-flipped one is rejected with an
// error, in which case the simulation's dynamic state (and possibly its
// x-cuts) is undefined and the caller should rebuild or re-restore
// before stepping.
func (s *Simulation) Restore(r io.Reader) error {
	br := bufio.NewReaderSize(r, 1<<20)
	hd, c, h, err := readCheckpointHeader(br)
	if err != nil {
		return err
	}
	if err := checkGeometry(hd, &s.Cfg); err != nil {
		return err
	}
	if cur := s.Ranks[0].D.Cfg.Layout; !hd.layout.Equal(cur) {
		onFileCuts := cur
		onFileCuts.CX = hd.layout.CX
		if !hd.layout.Equal(onFileCuts) {
			return fmt.Errorf("core: checkpoint layout %+v does not match simulation layout %+v (only x-cuts may differ)", hd.layout, cur)
		}
		for _, rk := range s.Ranks {
			dcfg := rk.D.Cfg
			dcfg.Layout = hd.layout
			d, err := domain.New(dcfg, rk.D.Comm)
			if err != nil {
				return err
			}
			rk.adoptDomain(&s.Cfg, d)
		}
	}
	for _, rk := range s.Ranks {
		rk.readState(c)
	}
	if c.err != nil {
		return fmt.Errorf("core: checkpoint truncated or unreadable: %w", c.err)
	}
	if err := verifyTrailer(br, h); err != nil {
		return err
	}
	s.each(func(rs *RankSim) {
		rs.step, rs.time = hd.step, hd.time
		rs.Rank.IP.Load(rs.Rank.D.F) // rebuild derived state
	})
	return nil
}
