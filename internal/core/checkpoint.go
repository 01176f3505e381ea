package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"strings"

	"govpic/internal/diag"
	"govpic/internal/domain"
	"govpic/internal/field"
	"govpic/internal/grid"
	"govpic/internal/mp"
	"govpic/internal/particle"
)

// Checkpointing serializes the complete dynamic state — fields and
// particles of every rank plus the step/time counters and the energy
// history — so a run can be stopped and resumed bit-exactly (the
// evolution is deterministic: the loader's draws are spent at load
// time, and a reflux wall's are keyed by species, face and step). The
// configuration itself is not stored; a restore validates that the
// receiving world's geometry matches.
//
// The format (v6) is: the magic line; a header of little-endian u64s
// (global grid, rank count, species count, step) and the f64 time; the
// rank layout (decomposition shape, then the x/y/z partition-plane
// cuts), so a load-balanced run resumes on the x-cuts it was written
// under; the run's energy history (a u64 sample count, then per sample
// the u64 step and the f64s time, E, B, total, div-B error and one
// kinetic energy per species), so a resumed run carries the
// uninterrupted run's whole history; each rank's payload in rank order
// (writeState: interior cells, Mur's section, particles); and a
// trailing little-endian CRC32 (IEEE) of every preceding byte, so a
// truncated or bit-flipped file is rejected instead of silently resumed
// from. Files with an older magic carry no checksum, no layout or no
// history (v1–v3), carry J (v4) or every ghost plane (v5), and are
// refused. Checkpoint, Restore and ResumeRankSim are collectives, so a
// world writes and reads the one file however its members are hosted;
// rank 0 alone touches the file.

const checkpointMagic = "GOVPIC-CKPT-6\n"

// The collectives' tags sit below the domain layer's tag windows
// (which start at 1<<10).
const (
	tagCheckpoint = 1<<9 + iota // a peer's payload, to rank 0
	tagRestore                  // rank 0's verdict, the header and the peer's payload
)

// The verdict, the first byte of a restore message: an accepted file's
// header and payload follow it, a rejected file's error text.
const (
	restoreAccepted byte = iota
	restoreRejected
)

// particleRecord is the size of one particle in writeState's form:
// three f32 offsets, the u64 voxel, four f32 (momentum, weight).
const particleRecord = 3*4 + 8 + 4*4

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

// cpWriter encodes the checkpoint format into one reusable chunk and
// hands w whole chunks, so a file or CRC behind it sees 64 KiB writes
// rather than one per value. Bytes written so far reach w only at a
// flush: raw flushes before it writes, and the caller flushes last.
type cpWriter struct {
	w   io.Writer
	err error
	buf []byte
}

// cpChunk is the size at which cpWriter hands its chunk to w.
const cpChunk = 64 << 10

func newCPWriter(w io.Writer) *cpWriter {
	return &cpWriter{w: w, buf: make([]byte, 0, cpChunk+8)}
}

func (c *cpWriter) u64(v uint64) {
	c.buf = binary.LittleEndian.AppendUint64(c.buf, v)
	if len(c.buf) >= cpChunk {
		c.flush()
	}
}

func (c *cpWriter) f32s(a []float32) {
	for _, v := range a {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, math.Float32bits(v))
		if len(c.buf) >= cpChunk {
			c.flush()
		}
	}
}

// raw writes b straight to w after the pending chunk.
func (c *cpWriter) raw(b []byte) {
	c.flush()
	if c.err == nil {
		_, c.err = c.w.Write(b)
	}
}

// flush hands the pending chunk to w.
func (c *cpWriter) flush() {
	if c.err == nil && len(c.buf) > 0 {
		_, c.err = c.w.Write(c.buf)
	}
	c.buf = c.buf[:0]
}

// cursor reads little-endian values off the front of a checkpoint's
// bytes; a read past the end marks it short and yields zeros.
type cursor struct {
	b     []byte
	short bool
}

func (c *cursor) next(n uint64) []byte {
	if c.short || n > uint64(len(c.b)) {
		c.short = true
		return make([]byte, 8)
	}
	p := c.b[:n]
	c.b = c.b[n:]
	return p
}

func (c *cursor) u64() uint64 { return binary.LittleEndian.Uint64(c.next(8)) }

func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

func (c *cursor) f32s(a []float32) {
	p := c.next(4 * uint64(len(a)))
	for i := 0; i < len(a) && !c.short; i++ {
		a[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
	}
}

// Checkpoint writes the world's full dynamic state to w (see the format
// above) — a collective every member calls at the same step. Rank 0 is
// the only member that touches w: peers send it their payload and
// return, and rank 0 writes the header, its History, every payload in
// rank order and the trailer. Rank 0 takes every peer's payload
// whatever happens to w, so a failed write hangs no member; the write's
// error is rank 0's.
func (rs *RankSim) Checkpoint(w io.Writer) error {
	rk := rs.Rank
	var mine []byte // rank 0 writes its own payload straight to w
	if rs.comm.Rank() != 0 {
		var payload bytes.Buffer
		c := newCPWriter(&payload)
		rk.writeState(c)
		c.flush()
		mine = payload.Bytes()
	}
	payloads := rs.comm.Gather(tagCheckpoint, mine)
	if payloads == nil {
		return nil
	}
	h := crc32.NewIEEE()
	c := newCPWriter(io.MultiWriter(w, h))
	c.raw([]byte(checkpointMagic))
	for _, v := range []int{rs.Cfg.NX, rs.Cfg.NY, rs.Cfg.NZ, rs.comm.Size(), len(rs.Cfg.Species), rs.step} {
		c.u64(uint64(v))
	}
	c.u64(math.Float64bits(rs.time))
	lay := rk.D.Cfg.Layout
	for _, vs := range [][]int{{lay.Dec.PX, lay.Dec.PY, lay.Dec.PZ}, lay.CX, lay.CY, lay.CZ} {
		for _, v := range vs {
			c.u64(uint64(v))
		}
	}
	c.u64(uint64(len(rs.History.Samples)))
	for _, s := range rs.History.Samples {
		c.u64(uint64(s.Step))
		for _, v := range append([]float64{s.Time, s.EField, s.BField, s.Total, s.DivBError}, s.Kinetic...) {
			c.u64(math.Float64bits(v))
		}
	}
	rk.writeState(c)
	for _, p := range payloads[1:] {
		c.raw(p.([]byte))
	}
	c.flush()
	c.raw(binary.LittleEndian.AppendUint32(nil, h.Sum32()))
	return c.err
}

// Checkpoint writes the world's checkpoint to w (RankSim.Checkpoint).
func (s *Simulation) Checkpoint(w io.Writer) error {
	return Collect(s, func(rs *RankSim) error { return rs.Checkpoint(w) })
}

// The components stateRows numbers after E's and B's (0–5).
const (
	compBackground = 6
	compMur        = 7 // plus murRows' comp
)

// stateRows is the one description of a rank's field state: the rows
// the checkpoint payload carries, StateCRC and CanonicalDigest hash and
// a reshape moves. On tile d with background bg (nil when the run has
// none) it calls fn with each row in order: the interior x-rows
// (interiorRows) of Ex, Ey, Ez, Bx, By and Bz (comp 0–5), those of bg,
// then Mur's (murRows). A row is an x-run of component comp that starts
// at voxel v. mark, when set, gets the u64s the payload holds between
// them: the background's flag (1 with one, else 0) and, when Mur's
// section is not empty, its float count. Every other ghost plane is
// derived (primeGhosts), and J is per-step scratch.
func stateRows(d *domain.Domain, bg []float32, mark func(uint64), fn func(comp, v int, row []float32)) {
	g, f := d.G, d.F
	if mark == nil {
		mark = func(uint64) {}
	}
	rows := func(comp int, a []float32) {
		interiorRows(g, func(v int) { fn(comp, v, a[v:v+g.NX]) })
	}
	for comp, a := range [...][]float32{f.Ex, f.Ey, f.Ez, f.Bx, f.By, f.Bz} {
		rows(comp, a)
	}
	if bg == nil {
		mark(0)
	} else {
		mark(1)
		rows(compBackground, bg)
	}
	mur := func(fn func(comp, v int, row []float32)) uint64 {
		return murRows(g, d.Cfg.Layout, d.Cfg.FieldBC, d.Rank, [3][]float32{f.Ex, f.Ey, f.Ez}, fn)
	}
	if n := mur(nil); n > 0 {
		mark(n)
	}
	mur(func(comp, v int, row []float32) { fn(compMur+comp, v, row) })
}

// writeState serializes this rank's dynamic state in the canonical
// checkpoint order: its field state (stateRows), then the particles.
func (rk *Rank) writeState(c *cpWriter) {
	stateRows(rk.D, rk.rho0, c.u64, func(_, _ int, row []float32) { c.f32s(row) })
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

// readState is writeState's mirror: it replaces this rank's state with
// the payload c holds, which receiveCheckpoint has verified was written
// on a tile of the same shape; the ghost planes are primeGhosts' to
// derive. The new particles make every species' partition stale.
func (rk *Rank) readState(c *cursor) {
	rk.markStale()
	g := rk.D.G
	// The background's flag follows E and B (skipPayload checked the
	// length): the background is sized first, so the walk fills it.
	if binary.LittleEndian.Uint64(c.b[6*4*g.NCells():]) != 1 {
		rk.rho0 = nil
	} else if len(rk.rho0) != g.NV() {
		rk.rho0 = make([]float32, g.NV())
	}
	stateRows(rk.D, rk.rho0, func(uint64) { c.u64() }, func(_, _ int, row []float32) { c.f32s(row) })
	for _, sp := range rk.Species {
		n := int(c.u64()) // bounded by the payload's length (skipPayload)
		sp.Buf.Resize(n)
		for i := 0; i < n && !c.short; i++ {
			var v [7]float32 // writeState's gathered AoS record
			c.f32s(v[:3])
			voxel := int32(uint32(c.u64()))
			c.f32s(v[3:])
			sp.Buf.Set(i, particle.Particle{Dx: v[0], Dy: v[1], Dz: v[2], Voxel: voxel, Ux: v[3], Uy: v[4], Uz: v[5], W: v[6]})
		}
	}
}

// skipPayload moves c past the payload of rank of layout lay on tile g,
// reading only its sizes (writeState's layout), and reports whether the
// bytes held all of it.
func skipPayload(c *cursor, g *grid.Grid, lay grid.Layout, bc [field.NumFaces]field.BC, rank, nSpecies int) bool {
	cells := uint64(g.NCells())
	c.next(6 * 4 * cells)
	if c.u64() == 1 {
		c.next(4 * cells)
	}
	if n := murRows(g, lay, bc, rank, [3][]float32{}, nil); n > 0 {
		c.short = c.short || c.u64() != n
		c.next(4 * n)
	}
	for s := 0; s < nSpecies && !c.short; s++ {
		n := c.u64()
		c.short = c.short || n > uint64(len(c.b))/particleRecord
		c.next(n * particleRecord)
	}
	return !c.short
}

// murRows calls fn (when set) with each row of the Mur section of rank
// of layout lay on tile g, and returns its float count: per local
// Absorbing high face, the two tangential components of e (in the field
// package's order; comp 2·axis and 2·axis+1) on plane N+1, over
// transverse indices 1..N+1, as x-rows in ascending voxel order, each
// starting at voxel v. First-order Mur writes that plane from its own
// previous value, so unlike every other ghost plane it is state. Its
// index-0 rows are derived, and beyond a remote face nothing reads
// them, so they stay out: no exchange's reach shows in the file.
func murRows(g *grid.Grid, lay grid.Layout, bc [field.NumFaces]field.BC, rank int, e [3][]float32, fn func(comp, v int, row []float32)) (n uint64) {
	cx, cy, cz := lay.Dec.Coord(rank)
	last := [3]bool{cx == lay.Dec.PX-1, cy == lay.Dec.PY-1, cz == lay.Dec.PZ-1}
	for axis := range last {
		if bc[2*axis+1] != field.Absorbing || !last[axis] {
			continue
		}
		lo, hi := [3]int{1, 1, 1}, [3]int{g.NX + 1, g.NY + 1, g.NZ + 1}
		lo[axis] = hi[axis]
		run := hi[0] - lo[0] + 1
		n += 2 * uint64(run*(hi[1]-lo[1]+1)*(hi[2]-lo[2]+1))
		for c, a := range [2][]float32{e[(axis+1)%3], e[(axis+2)%3]} {
			for iz := lo[2]; fn != nil && iz <= hi[2]; iz++ {
				for iy := lo[1]; iy <= hi[1]; iy++ {
					v := g.Voxel(lo[0], iy, iz)
					fn(2*axis+c, v, a[v:v+run])
				}
			}
		}
	}
	return n
}

// StateCRC fingerprints this rank's dynamic state: the CRC32 (IEEE) of
// its canonical checkpoint serialization. Two ranks computing the same
// tile — whether hosted in one process or across a network — produce
// identical CRCs exactly when their states are bit-identical, which is
// how the distributed smoke tests prove transport transparency.
func (rk *Rank) StateCRC() uint32 {
	h := crc32.NewIEEE()
	c := newCPWriter(h)
	rk.writeState(c)
	c.flush()
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
// counters, the rank layout the per-rank payload is laid out in and the
// energy history, and the bytes it was parsed from.
type cpHeader struct {
	nx, ny, nz int
	nSpecies   int
	step       int
	time       float64
	layout     grid.Layout
	history    []diag.EnergySample
	preamble   []byte // the magic through the history
}

// readCheckpointHeader parses the magic, header, layout and history off
// the front of c, leaving c at the first rank's payload. A count is
// bounded by the bytes left before anything is sized by it, so a
// corrupt one reads as the truncation it is.
func readCheckpointHeader(c *cursor) (*cpHeader, error) {
	start := c.b
	if len(c.b) < len(checkpointMagic) {
		return nil, fmt.Errorf("core: checkpoint truncated: %w", io.ErrUnexpectedEOF)
	}
	if magic := string(c.next(uint64(len(checkpointMagic)))); magic != checkpointMagic {
		if strings.HasPrefix(magic, "GOVPIC-CKPT-") {
			return nil, fmt.Errorf("core: unsupported checkpoint version %q", magic[:len(magic)-1])
		}
		return nil, fmt.Errorf("core: not a checkpoint (bad magic)")
	}
	hd := &cpHeader{}
	hd.nx, hd.ny, hd.nz = int(c.u64()), int(c.u64()), int(c.u64())
	nRanks := int(c.u64())
	// Every rank's payload holds a u64 count per species.
	if n := c.u64(); n <= uint64(len(c.b))/8 {
		hd.nSpecies = int(n)
	} else {
		c.short = true
	}
	hd.step = int(c.u64())
	hd.time = c.f64()
	px, py, pz := int(c.u64()), int(c.u64()), int(c.u64())
	if !c.short && px*py*pz != nRanks {
		return nil, fmt.Errorf("core: checkpoint layout %dx%dx%d does not cover %d ranks", px, py, pz, nRanks)
	}
	readCuts := func(p int) []int {
		if p < 1 || p > 1<<20 {
			c.short = true
			return nil
		}
		cuts := make([]int, p+1)
		for i := range cuts {
			cuts[i] = int(c.u64())
		}
		return cuts
	}
	cx, cy, cz := readCuts(px), readCuts(py), readCuts(pz)
	n := c.u64()
	if per := 8 * uint64(6+hd.nSpecies); n > uint64(len(c.b))/per {
		c.short, n = true, 0
	}
	hd.history = make([]diag.EnergySample, n)
	for i := range hd.history {
		s := &hd.history[i]
		s.Step = int(c.u64())
		s.Time, s.EField, s.BField, s.Total, s.DivBError = c.f64(), c.f64(), c.f64(), c.f64(), c.f64()
		s.Kinetic = make([]float64, hd.nSpecies)
		for k := range s.Kinetic {
			s.Kinetic[k] = c.f64()
		}
	}
	if c.short {
		return nil, fmt.Errorf("core: checkpoint truncated or unreadable: %w", io.ErrUnexpectedEOF)
	}
	dec := grid.Decomp{PX: px, PY: py, PZ: pz, GNX: hd.nx, GNY: hd.ny, GNZ: hd.nz}
	lay, err := grid.NewLayout(dec, cx, cy, cz)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint layout invalid: %w", err)
	}
	hd.layout = lay
	hd.preamble = start[:len(start)-len(c.b)]
	return hd, nil
}

// verifyCheckpoint checks data for a world with config cfg on layout
// cur — header, geometry (*GeometryMismatchError), layout (only x-cuts
// may differ, and with sameCuts not they either), every payload's
// extent and the CRC trailer — and returns the header and every rank's
// payload in rank order.
func verifyCheckpoint(data []byte, cfg *Config, cur grid.Layout, sameCuts bool) (*cpHeader, [][]byte, error) {
	c := &cursor{b: data}
	hd, err := readCheckpointHeader(c)
	if err != nil {
		return nil, nil, err
	}
	if hd.nx != cfg.NX || hd.ny != cfg.NY || hd.nz != cfg.NZ || hd.nSpecies != len(cfg.Species) {
		return nil, nil, &GeometryMismatchError{
			FileNX: hd.nx, FileNY: hd.ny, FileNZ: hd.nz, FileSpecies: hd.nSpecies,
			WantNX: cfg.NX, WantNY: cfg.NY, WantNZ: cfg.NZ, WantSpecies: len(cfg.Species),
		}
	}
	onFileCuts := cur
	onFileCuts.CX = hd.layout.CX
	if !hd.layout.Equal(onFileCuts) {
		return nil, nil, fmt.Errorf("core: checkpoint layout %+v does not match simulation layout %+v (only x-cuts may differ)", hd.layout, cur)
	}
	payloads := make([][]byte, hd.layout.Dec.NRanks())
	for r := range payloads {
		g, err := hd.layout.Local(r, cfg.DX, cfg.DY, cfg.DZ)
		if err != nil {
			return nil, nil, err
		}
		start := c.b
		if !skipPayload(c, g, hd.layout, cfg.FieldBC, r, hd.nSpecies) {
			return nil, nil, fmt.Errorf("core: checkpoint truncated or unreadable: %w", io.ErrUnexpectedEOF)
		}
		payloads[r] = start[:len(start)-len(c.b)]
	}
	if len(c.b) < 4 {
		return nil, nil, fmt.Errorf("core: checkpoint truncated (missing CRC trailer): %w", io.ErrUnexpectedEOF)
	}
	if got, want := binary.LittleEndian.Uint32(c.b), crc32.ChecksumIEEE(data[:len(data)-len(c.b)]); got != want {
		return nil, nil, fmt.Errorf("core: checkpoint corrupt: CRC %08x in file, %08x computed", got, want)
	}
	if sameCuts && !hd.layout.Equal(cur) {
		return nil, nil, fmt.Errorf("core: checkpoint layout %+v does not match simulation layout %+v (only x-cuts may differ, and only when a member resumes)", hd.layout, cur)
	}
	return hd, payloads, nil
}

// receiveCheckpoint is the transfer under both restores — a collective
// every member calls at the same step. Rank 0 alone touches r: it reads
// the file and verifies all of it once (verifyCheckpoint), then sends
// each peer one message: the verdict and, for an accepted file, the
// file's preamble and that peer's own payload. A peer checks only its
// payload's extent (skipPayload). Every member returns the header and
// a cursor on its payload, or rank 0's error, so a rejected file fails
// every member alike and changes none.
func receiveCheckpoint(comm *mp.Comm, r io.Reader, cfg *Config, cur grid.Layout, sameCuts bool) (*cpHeader, *cursor, error) {
	if comm.Rank() != 0 {
		msg := comm.Recv(0, tagRestore).([]byte)
		if msg[0] != restoreAccepted {
			return nil, nil, errors.New(string(msg[1:]))
		}
		c := &cursor{b: msg[1:]}
		hd, err := readCheckpointHeader(c)
		if err != nil {
			return nil, nil, err
		}
		g, err := hd.layout.Local(comm.Rank(), cfg.DX, cfg.DY, cfg.DZ)
		if err != nil {
			return nil, nil, err
		}
		payload := *c
		if !skipPayload(c, g, hd.layout, cfg.FieldBC, comm.Rank(), hd.nSpecies) || len(c.b) > 0 {
			return nil, nil, fmt.Errorf("core: checkpoint payload truncated or unreadable: %w", io.ErrUnexpectedEOF)
		}
		return hd, &payload, nil
	}
	data, err := readAll(r)
	if err != nil {
		err = fmt.Errorf("core: checkpoint unreadable: %w", err)
	}
	var hd *cpHeader
	var payloads [][]byte
	if err == nil {
		hd, payloads, err = verifyCheckpoint(data, cfg, cur, sameCuts)
	}
	for p := 1; p < comm.Size(); p++ {
		var msg []byte
		if err != nil {
			msg = append([]byte{restoreRejected}, err.Error()...)
		} else {
			msg = make([]byte, 0, 1+len(hd.preamble)+len(payloads[p]))
			msg = append(append(append(msg, restoreAccepted), hd.preamble...), payloads[p]...)
		}
		comm.Send(p, tagRestore, msg)
	}
	if err != nil {
		return nil, nil, err
	}
	return hd, &cursor{b: payloads[0]}, nil
}

// readAll reads r to its end into one buffer sized up front when r
// tells its size (a file's Stat, a reader's Len), where io.ReadAll would
// grow and copy its buffer a dozen times over a large checkpoint.
func readAll(r io.Reader) ([]byte, error) {
	n := 0
	switch v := r.(type) {
	case interface{ Len() int }:
		n = v.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil {
			n = int(fi.Size())
		}
	}
	var b bytes.Buffer
	b.Grow(n + bytes.MinRead)
	_, err := b.ReadFrom(r)
	return b.Bytes(), err
}

// Restore replaces this member's dynamic state bit-exactly with a
// checkpoint of a world with the same geometry, species and layout — a
// collective every member calls at the same step (receiveCheckpoint).
// It moves no member: a file on other x-cuts is refused, and
// ResumeRankSim builds a member on them. Each member reads its own
// payload and, with the world, re-derives its ghost planes.
func (rs *RankSim) Restore(r io.Reader) error {
	hd, payload, err := receiveCheckpoint(rs.comm, r, &rs.Cfg, rs.Rank.D.Cfg.Layout, true)
	if err != nil {
		return err
	}
	rs.read(hd, payload)
	return nil
}

// read replaces the member's state with payload's and its counters and
// history with hd's, sizes the kernels for the new population and
// primes the ghost planes with the world (primeGhosts).
func (rs *RankSim) read(hd *cpHeader, payload *cursor) {
	rk := rs.Rank
	rk.readState(payload)
	rk.presizeKernels()
	rk.primeGhosts()
	rs.step, rs.time = hd.step, hd.time
	rs.History = diag.History{Samples: hd.history}
}

// CheckpointHistory returns the energy history of the checkpoint r
// holds, after checking its magic, header and CRC trailer (the last
// four bytes). It needs no simulation: vpicd replays a stopped job's
// samples from the job's checkpoint.
func CheckpointHistory(r io.Reader) (diag.History, error) {
	data, err := readAll(r)
	if err != nil {
		return diag.History{}, fmt.Errorf("core: checkpoint unreadable: %w", err)
	}
	hd, err := readCheckpointHeader(&cursor{b: data})
	if err != nil {
		return diag.History{}, err
	}
	body := data[:len(data)-4] // the header parsed, so data is longer
	if got, want := binary.LittleEndian.Uint32(data[len(body):]), crc32.ChecksumIEEE(body); got != want {
		return diag.History{}, fmt.Errorf("core: checkpoint corrupt: CRC %08x in file, %08x computed", got, want)
	}
	return diag.History{Samples: hd.history}, nil
}

// Restore loads a checkpoint into every member in place
// (RankSim.Restore).
func (s *Simulation) Restore(r io.Reader) error {
	return Collect(s, func(rs *RankSim) error { return rs.Restore(r) })
}
