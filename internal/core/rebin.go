package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"govpic/internal/field"
	"govpic/internal/grid"
)

// Resume-into-new-geometry: restoreRebin streams a checkpoint written
// under any rank layout and scatters its interior cells and particles
// to whichever rank owns them under the current layout. Only interior
// state is carried — ghost planes, boundary aliases and interpolators
// are derived data and are reconstructed collectively afterward, which
// is why the re-binned path requires fully periodic boundaries (the
// absorbing-wall state machine keeps history the stream does not
// carry). The re-binned state is physics-identical to the source: the
// geometry-canonical digest (CanonicalDigest) is preserved bit-for-bit
// across the re-bin, even though per-rank byte layouts differ.

// restoreRebin reads a whole checkpoint, delivering to each hosted rank
// (hosted[r] is nil for ranks of the current layout this process does
// not host) the cells and particles it owns, and returns the header for
// the caller to take the counters from. The global grid and species
// list must match (else *GeometryMismatchError). Ghost state is left
// stale: every rank of the world must run rebinPrime afterward.
func restoreRebin(r io.Reader, cfg *Config, hosted []*Rank, cur grid.Layout) (*cpHeader, error) {
	if err := requirePeriodic(cfg); err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(r, 1<<20)
	hd, c, h, err := readCheckpointHeader(br)
	if err != nil {
		return nil, err
	}
	if err := checkGeometry(hd, cfg); err != nil {
		return nil, err
	}
	if err := rebinScatter(c, cfg, hd.layout, cur, hosted); err != nil {
		return nil, err
	}
	return hd, verifyTrailer(br, h)
}

// restored installs a re-binned checkpoint's counters and rebuilds the
// member's ghost state (collective).
func (rs *RankSim) restored(hd *cpHeader) {
	rs.step, rs.time = hd.step, hd.time
	rs.Rank.rebinPrime()
}

// restoreRebin loads a checkpoint into the simulation regardless of
// the layout it was written under, re-binning cells and particles into
// the current decomposition.
func (s *Simulation) restoreRebin(r io.Reader) error {
	hd, err := restoreRebin(r, &s.Cfg, s.Ranks, s.Ranks[0].D.Cfg.Layout)
	if err != nil {
		return err
	}
	s.each(func(rs *RankSim) { rs.restored(hd) })
	return nil
}

// Restore loads a checkpoint into this rank of a distributed world,
// accepting any recorded layout: cells and particles are re-binned to
// their owners under the current layout (for a matching layout that is
// the identity on interior state). Every rank must call it
// concurrently — the ghost reconstruction is collective. Each rank
// streams the whole file, keeping only what it owns.
func (rs *RankSim) Restore(r io.Reader) error {
	hosted := make([]*Rank, rs.comm.Size())
	hosted[rs.comm.Rank()] = rs.Rank
	hd, err := restoreRebin(r, &rs.Cfg, hosted, rs.Rank.D.Cfg.Layout)
	if err != nil {
		return err
	}
	rs.restored(hd)
	return nil
}

// Resume loads a checkpoint into the simulation, accepting a layout
// other than its own: when the file records different partition planes
// (it was written mid-rebalance, or by a host that chose a different
// initial layout), the run is rebuilt pinned to the recorded cuts — a
// bit-exact resume into the geometry the state was written in. If that
// is not possible (e.g. the recorded decomposition is not x-only under
// this rank count), the state is re-binned into the current geometry
// instead. It returns the simulation to continue on (s itself unless
// the geometry was rebuilt) and, when the layout differed, a note
// saying which path was taken. Grid or species mismatches and corrupt
// files stay errors.
func (s *Simulation) Resume(f io.ReadSeeker) (*Simulation, string, error) {
	err := s.Restore(f)
	var lme *LayoutMismatchError
	if !errors.As(err, &lme) {
		return s, "", err
	}
	if lme.Layout.Dec.PX == s.Cfg.NRanks {
		cfg2 := s.Cfg
		cfg2.CutsX = append([]int(nil), lme.Layout.CX...)
		if s2, err2 := New(cfg2); err2 == nil {
			if _, err2 = f.Seek(0, io.SeekStart); err2 != nil {
				return s, "", err2
			}
			if err2 = s2.Restore(f); err2 == nil {
				return s2, fmt.Sprintf("resumed into recorded x-cuts %v", cfg2.CutsX), nil
			}
		}
	}
	if _, err = f.Seek(0, io.SeekStart); err != nil {
		return s, "", err
	}
	if err = s.restoreRebin(f); err != nil {
		return s, "", fmt.Errorf("re-binned restore: %w", err)
	}
	return s, fmt.Sprintf("re-binned checkpoint cuts %v into the current layout", lme.Layout.CX), nil
}

func requirePeriodic(cfg *Config) error {
	for axis := 0; axis < 3; axis++ {
		if cfg.FieldBC[2*axis] != field.Periodic {
			return fmt.Errorf("core: re-binned restore requires fully periodic boundaries (axis %d is not)", axis)
		}
	}
	return nil
}

// rebinScatter streams every recorded rank's payload from c and
// delivers interior cells and particles to the current owner's Rank
// (a nil entry of hosted is a rank this process does not host — its
// share of the stream is consumed and dropped). Target particle
// buffers are cleared first; target field interiors are fully
// overwritten because the recorded tiles cover the global grid
// exactly once.
func rebinScatter(c *cpReader, cfg *Config, rec, cur grid.Layout, hosted []*Rank) error {
	for _, rk := range hosted {
		if rk != nil {
			for _, sp := range rk.Species {
				sp.Buf.Clear()
			}
			rk.rho0 = nil
		}
	}
	for rr := 0; rr < rec.Dec.NRanks(); rr++ {
		rg, err := rec.Local(rr, cfg.DX, cfg.DY, cfg.DZ)
		if err != nil {
			return fmt.Errorf("core: checkpoint rank %d tile invalid: %w", rr, err)
		}
		gx0, gy0, gz0 := rec.Origin(rr)
		nv := rg.NV()
		fields := make([][]float32, 9)
		for i := range fields {
			fields[i] = make([]float32, nv)
			c.f32s(fields[i])
		}
		var rho0 []float32
		if c.u64() == 1 {
			rho0 = make([]float32, nv)
			c.f32s(rho0)
		}
		if c.err != nil {
			return fmt.Errorf("core: checkpoint truncated or unreadable: %w", c.err)
		}
		// Scatter interior cells. Ownership along each axis is constant
		// within a destination slab, so resolve the owner per x-plane
		// and only refine on y/z when those axes are split.
		for iz := 1; iz <= rg.NZ; iz++ {
			for iy := 1; iy <= rg.NY; iy++ {
				for ix := 1; ix <= rg.NX; ix++ {
					gx, gy, gz := gx0+ix-1, gy0+iy-1, gz0+iz-1
					rk := hosted[cur.RankOfCell(gx, gy, gz)]
					if rk == nil {
						continue
					}
					ox, oy, oz := cur.Origin(rk.D.Rank)
					v := rk.D.G.Voxel(gx-ox+1, gy-oy+1, gz-oz+1)
					src := rg.Voxel(ix, iy, iz)
					f := rk.D.F
					for ai, a := range [][]float32{f.Ex, f.Ey, f.Ez, f.Bx, f.By, f.Bz, f.Jx, f.Jy, f.Jz} {
						a[v] = fields[ai][src]
					}
					if rho0 != nil {
						if rk.rho0 == nil {
							rk.rho0 = make([]float32, rk.D.G.NV())
						}
						rk.rho0[v] = rho0[src]
					}
				}
			}
		}
		// Scatter particles by their global cell.
		for si := 0; si < len(cfg.Species); si++ {
			n := int(c.u64())
			if c.err != nil {
				return fmt.Errorf("core: checkpoint truncated or unreadable: %w", c.err)
			}
			for i := 0; i < n; i++ {
				p := c.particle()
				if c.err != nil {
					return fmt.Errorf("core: checkpoint truncated or unreadable: %w", c.err)
				}
				ix, iy, iz := rg.Unvoxel(int(uint32(p.Voxel)))
				gx, gy, gz := gx0+ix-1, gy0+iy-1, gz0+iz-1
				rk := hosted[cur.RankOfCell(gx, gy, gz)]
				if rk == nil {
					continue
				}
				ox, oy, oz := cur.Origin(rk.D.Rank)
				p.Voxel = int32(rk.D.G.Voxel(gx-ox+1, gy-oy+1, gz-oz+1))
				rk.Species[si].Buf.Append(p)
			}
		}
	}
	return nil
}

// rebinPrime reconstructs a rank's derived state after its interior
// was re-binned: E/B boundary and ghost planes (local wraps, then
// remote exchange), the neutralizing background's ghost aliases, and
// the interpolators. J's ghost planes are left as-is — the next step
// clears and re-deposits J before any read. Collective: every rank of
// the world must call it concurrently.
func (rk *Rank) rebinPrime() {
	f := rk.D.F
	f.UpdateGhostE()
	f.UpdateGhostB()
	rk.D.ExchangeGhostE()
	rk.D.ExchangeGhostB()
	if rk.rho0 != nil {
		f.FillNodeGhost(rk.rho0)
		rk.D.ExchangeScalarGhost(rk.rho0)
	}
	rk.IP.Load(f)
}
