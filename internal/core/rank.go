package core

import (
	"fmt"

	"govpic/internal/accum"
	"govpic/internal/balance"
	"govpic/internal/domain"
	"govpic/internal/field"
	"govpic/internal/grid"
	"govpic/internal/interp"
	"govpic/internal/loader"
	"govpic/internal/mp"
	"govpic/internal/particle"
	"govpic/internal/perf"
	"govpic/internal/pipe"
	"govpic/internal/push"
	psort "govpic/internal/sort"
	"govpic/internal/species"
)

// Rank is one decomposed tile's full state. Exported fields support
// diagnostics and tests; mutate nothing between Step calls.
type Rank struct {
	D       *domain.Domain
	IP      *interp.Table
	Acc     *accum.Array
	Species []*species.Species
	Kernels []*push.Kernel
	Perf    perf.Breakdown

	sortWS  *psort.Workspace
	rho     []float32 // scratch charge density
	rho0    []float32 // static background (NeutralizingBackground)
	scratch []float32

	// Intra-rank pipeline state: the worker pool, one private
	// accumulator per pipeline block (allocated once, reused every
	// step), the per-block push states, and the reusable buffer-pointer
	// slice for the particle exchange.
	pool    *pipe.Pool
	pipeAcc []*accum.Array
	blockSt []*push.BlockState
	bufs    []*particle.Buffer
	pushT   pushBlocks

	// Boundary-first push state: shell marks the voxels adjacent to a
	// remote face — the only voxels whose particles can migrate this
	// step under the CFL bound — so the step can push them first, post
	// the particle exchange, and push the interior while migrants fly
	// (nil when the rank has no remote face: the shell is empty).
	// part holds each species' partition memory (partState).
	shell []bool
	part  []partState
}

// partState is one species' boundary partition between steps. After a
// partition, [0, cut) holds interior particles and [cut, N) shell ones.
// The step then changes a slot only where a mover finishes (its own
// slot, or a RemoveSwap into it, which also drops the last slot) and by
// appending arrivals, so the next partition needs to look only at:
//   - outer: the shell phase's mover slots that now hold an interior
//     particle, ascending (collect);
//   - inner: the interior phase's mover slots that now hold a shell
//     particle, ascending;
//   - the arrival tail [tail, N), tail being N after the interior push;
//   - the band between the old cut and the new one.
//
// Every other slot below tail is on its side of the old cut, and so, off
// the band, on its side of the new one. The two-ended walk over that
// ascending slot list therefore makes exactly partitionBoundary's swaps
// (the k-th leftmost misplaced shell particle with the k-th rightmost
// misplaced interior one), and the buffer is byte-identical to a full
// scan's. stale forces the full scan; it is set whenever the buffer
// changes wholesale: the load, every sort, readState and adoptDomain.
type partState struct {
	cut, tail    int
	stale        bool
	inner, outer []int32
	scan         []int32 // the merged slot list, reused
}

// domainConfig validates cfg for a member of comm's world and derives
// the decomposed-domain configuration (including the rank
// decomposition) from it. Every rank of a world — in-process or
// distributed — must derive the same one, so loading stays
// decomposition-invariant: the layout is a pure function of cfg. An
// active balance mode switches to an x-slab decomposition whose x
// extent need not divide evenly (the cuts place the planes); otherwise
// the classic even-divisibility chooser runs, so existing decks keep
// their exact decomposition. Either way the world starts on the
// uniform cuts.
func domainConfig(cfg *Config, comm *mp.Comm) (domain.Config, error) {
	if err := cfg.Validate(); err != nil {
		return domain.Config{}, err
	}
	if cfg.NRanks != comm.Size() {
		return domain.Config{}, fmt.Errorf("core: config wants %d ranks, world has %d", cfg.NRanks, comm.Size())
	}
	var dec grid.Decomp
	var err error
	if cfg.Balance.Mode != balance.Off {
		dec, err = grid.ChooseDecompFixedPX(cfg.NRanks, cfg.NRanks, cfg.NX, cfg.NY, cfg.NZ)
	} else {
		dec, err = grid.ChooseDecomp(cfg.NRanks, cfg.NX, cfg.NY, cfg.NZ)
	}
	if err != nil {
		return domain.Config{}, err
	}
	return domain.Config{
		Layout: grid.Uniform(dec), DX: cfg.DX, DY: cfg.DY, DZ: cfg.DZ,
		FieldBC: cfg.FieldBC, ParticleBC: cfg.ParticleBC,
	}, nil
}

// newRank builds one rank's tile on dcfg's layout: domain, kernels,
// empty species and scratch. It performs no communication, so ranks can
// be built in any order, on one process or many. A fresh member then
// loads its species (load), a resumed one reads them (readState).
func newRank(cfg *Config, dcfg domain.Config, comm *mp.Comm) (*Rank, error) {
	d, err := domain.New(dcfg, comm)
	if err != nil {
		return nil, err
	}
	rk := &Rank{
		D:   d,
		IP:  interp.NewTable(d.G),
		Acc: accum.New(d.G),
	}
	rk.sortWS = psort.NewWorkspace(d.G.NV())
	rk.rho = make([]float32, d.G.NV())
	rk.scratch = make([]float32, d.G.NV())
	rk.pool = pipe.New(cfg.Workers)
	rk.sortWS.SetPool(rk.pool)
	rk.pipeAcc = make([]*accum.Array, pipe.NumBlocks)
	rk.blockSt = make([]*push.BlockState, pipe.NumBlocks)
	for b := range rk.pipeAcc {
		rk.pipeAcc[b] = accum.New(d.G)
		rk.blockSt[b] = new(push.BlockState)
	}
	for _, sc := range cfg.Species {
		sp, err := species.New(sc.Name, sc.Q, sc.M, sc.SortInterval)
		if err != nil {
			return nil, err
		}
		rk.Species = append(rk.Species, sp)
		rk.Kernels = append(rk.Kernels, rk.newKernel(cfg, sp))
		rk.bufs = append(rk.bufs, sp.Buf)
	}
	// Pre-size the per-block mover lists so steady-state steps allocate
	// nothing.
	for _, bs := range rk.blockSt {
		bs.Movers = make([]particle.Mover, 0, 1024)
	}
	rk.shell = shellMask(d)
	rk.part = make([]partState, len(rk.Species))
	rk.markStale()
	return rk, nil
}

// load fills the species of a freshly built rank, in config order
// (decomposition-invariant), and sizes the kernels for them. The
// loader emits every species in ascending voxel order, so the load
// needs no sort: the first one runs at step SortInterval.
func (rk *Rank) load(cfg *Config) error {
	gl := loader.Global{NX: cfg.NX, NY: cfg.NY, NZ: cfg.NZ}
	for i, sc := range cfg.Species {
		buf := rk.Species[i].Buf
		switch {
		case sc.NeutralizePrevious:
			uth, seed := [3]float64{}, uint64(1)
			if sc.Load != nil {
				uth, seed = sc.Load.Uth, sc.Load.Seed
			}
			if err := loader.LoadNeutralizing(rk.Species[i-1].Buf, sc.Q, uth, seed, buf); err != nil {
				return err
			}
		case sc.Load != nil:
			if _, err := loader.Load(rk.D.G, gl, *sc.Load, rk.pool, buf); err != nil {
				return err
			}
		}
	}
	rk.presizeKernels()
	// The load's regions are set-up, not the first step's sections.
	rk.pool.TakeStats(0)
	return nil
}

// newKernel builds species sp's push kernel on the rank's current
// domain, interpolators and accumulator; presizeKernels sizes its
// outgoing buffers.
func (rk *Rank) newKernel(cfg *Config, sp *species.Species) *push.Kernel {
	k := push.NewKernel(rk.D.G, rk.IP, rk.Acc, sp.Q, sp.M, cfg.DT)
	k.Asm = cfg.Kernel == push.KernelAsm
	k.Bound = rk.D.ParticleActions()
	return k
}

// presizeKernels sizes every kernel's outgoing buffers for its
// species' current population, so steady-state steps allocate nothing
// (newRank sizes the pipeline blocks' mover lists).
func (rk *Rank) presizeKernels() {
	for i, k := range rk.Kernels {
		k.Prealloc(rk.Species[i].Buf.N()/64 + 16)
	}
}

// shellMask marks every interior voxel adjacent to a remote face. Under
// the Courant bound (Validate rejects DT at or above the cell's limit) a
// particle's per-axis displacement is below one cell per step, so only
// particles in these voxels can cross a remote face and migrate. A rank
// with no remote face (every single-rank run) has an empty shell: nil.
func shellMask(d *domain.Domain) []bool {
	g := d.G
	var rem [field.NumFaces]bool
	for f := field.Face(0); f < field.NumFaces; f++ {
		rem[f] = d.Remote(f)
	}
	if rem == [field.NumFaces]bool{} {
		return nil
	}
	shell := make([]bool, g.NV())
	for iz := 1; iz <= g.NZ; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			for ix := 1; ix <= g.NX; ix++ {
				if (rem[field.XLo] && ix == 1) || (rem[field.XHi] && ix == g.NX) ||
					(rem[field.YLo] && iy == 1) || (rem[field.YHi] && iy == g.NY) ||
					(rem[field.ZLo] && iz == 1) || (rem[field.ZHi] && iz == g.NZ) {
					shell[g.Voxel(ix, iy, iz)] = true
				}
			}
		}
	}
	return shell
}

// markStale makes every species' next partition a full scan.
func (rk *Rank) markStale() {
	for i := range rk.part {
		rk.part[i].stale = true
	}
}

// partition puts buf's interior particles first and its shell particles
// last: by the full scan when p is stale, else from p's candidates.
func (p *partState) partition(shell []bool, buf *particle.Buffer) {
	if p.stale || shell == nil {
		p.cut = partitionBoundary(shell, buf)
		p.stale = false
		return
	}
	n, t := buf.N(), p.tail
	outer := p.outer
	for len(outer) > 0 && int(outer[len(outer)-1]) >= t {
		outer = outer[:len(outer)-1] // dropped by an interior RemoveSwap
	}
	// The new cut counts the interior particles: the unlisted slots below
	// min(cut, tail), the outer list and the tail's.
	cut := min(p.cut, t) - len(p.inner) + len(outer)
	for s := t; s < n; s++ {
		if !shell[buf.Voxel(s)] {
			cut++
		}
	}
	// The slot list, ascending: the candidates below the band [lo, hi)
	// between the old and the new cut, the band (short of the tail), the
	// candidates above it, then the tail.
	lo, hi := min(p.cut, cut, t), min(max(p.cut, cut), t)
	scan := p.scan[:0]
	for _, list := range [2][]int32{p.inner, outer} {
		for _, s := range list {
			if int(s) < lo {
				scan = append(scan, s)
			}
		}
	}
	for s := lo; s < hi; s++ {
		scan = append(scan, int32(s))
	}
	for _, list := range [2][]int32{p.inner, outer} {
		for _, s := range list {
			if int(s) >= hi {
				scan = append(scan, s)
			}
		}
	}
	for s := t; s < n; s++ {
		scan = append(scan, int32(s))
	}
	p.scan = scan
	// partitionBoundary's walk, over the list's slots.
	a, b := 0, len(scan)
	for {
		for a < b && !shell[buf.Voxel(int(scan[a]))] {
			a++
		}
		for a < b && shell[buf.Voxel(int(scan[b-1]))] {
			b--
		}
		if a == b {
			break
		}
		b--
		x, y := int(scan[a]), int(scan[b])
		pt := buf.At(x)
		buf.Set(x, buf.At(y))
		buf.Set(y, pt)
		a++
	}
	p.cut = cut
}

// collect records p's candidates after one push phase of the
// boundary-first step: the mover slots of blocks (nil when the phase
// pushed nothing) still below N whose particle's class now differs from
// its slot's side of the cut. The interior phase also records the tail.
func (p *partState) collect(shell []bool, buf *particle.Buffer, blocks []*push.BlockState, shellPhase bool) {
	n := buf.N()
	list := p.inner[:0]
	if shellPhase {
		list = p.outer[:0]
	}
	for _, bs := range blocks {
		for _, mv := range bs.Movers {
			if s := int(mv.Idx); s < n && shell[buf.Voxel(s)] != shellPhase {
				list = append(list, mv.Idx)
			}
		}
	}
	if shellPhase {
		p.outer = list
	} else {
		p.inner, p.tail = list, n
	}
}

// partitionBoundary partitions a species buffer in place, interior
// particles first and boundary-shell particles as the tail, and returns
// the interior count. Cursors scan in from both ends and swap each shell
// particle of the prefix with an interior one of the suffix, so only
// misplaced particles move. The result depends on the buffer alone (not
// the worker count), so the split push stays bit-identical for any
// number of workers. An empty shell leaves the buffer untouched. It is
// the full scan behind partState.partition and that path's test oracle.
func partitionBoundary(shell []bool, buf *particle.Buffer) int {
	i, j := 0, buf.N()
	if shell == nil {
		return j
	}
	for {
		for i < j && !shell[buf.Voxel(i)] {
			i++
		}
		for i < j && shell[buf.Voxel(j-1)] {
			j--
		}
		if i == j {
			return i
		}
		j--
		p := buf.At(i)
		buf.Set(i, buf.At(j))
		buf.Set(j, p)
		i++
	}
}

// initDecomposed finishes a rank's initialization with the phases that
// communicate: the neutralizing-background capture and the first ghost
// and interpolator prime. Every rank of the world must call it
// concurrently. The message order per link is deterministic, so fusing
// the phases is behavior-identical to running them under separate
// barriers.
func (rk *Rank) initDecomposed(cfg *Config) {
	// Neutralizing background: capture −ρ(t=0) so cleaning targets
	// ρ_mobile − ρ_initial (consistent with the E=0 start).
	if cfg.NeutralizingBackground {
		rk.rho0 = make([]float32, rk.D.G.NV())
		rk.depositAllRho(rk.rho0)
		for i, v := range rk.rho0 {
			rk.rho0[i] = -v
		}
	}
	rk.primeGhosts()
}

// primeGhosts derives every ghost plane of the rank's state from its
// interior cells and Mur's planes (murRows) — a collective, after the
// state is built, moved or read: zero for the background's (nothing
// reads them), the local boundary passes and the remote exchanges for
// E's and B's; then the interpolators.
func (rk *Rank) primeGhosts() {
	d := rk.D
	for v := range rk.rho0 {
		if !d.G.Interior(v) {
			rk.rho0[v] = 0
		}
	}
	d.F.UpdateGhostE()
	d.F.UpdateGhostB()
	d.ExchangeGhostE()
	d.ExchangeGhostB()
	rk.IP.LoadPar(nil, d.F)
}

// Background returns the rank's static neutralizing charge density, or
// nil when NeutralizingBackground is off.
func (rk *Rank) Background() []float32 { return rk.rho0 }
