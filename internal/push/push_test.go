package push

import (
	"math"
	"testing"

	"govpic/internal/accum"
	"govpic/internal/field"
	"govpic/internal/grid"
	"govpic/internal/interp"
	"govpic/internal/particle"
	"govpic/internal/rng"
)

// rig bundles the objects a push test needs.
type rig struct {
	g   *grid.Grid
	f   *field.Fields
	ip  *interp.Table
	acc *accum.Array
	buf *particle.Buffer
}

func newRig(nx, ny, nz int, d float64) *rig {
	g := grid.MustNew(nx, ny, nz, d, d, d)
	return &rig{
		g:   g,
		f:   field.NewPeriodic(g),
		ip:  interp.NewTable(g),
		acc: accum.New(g),
		buf: particle.NewBuffer(0),
	}
}

func (r *rig) kernel(q, m, dt float64) *Kernel {
	return NewKernel(r.g, r.ip, r.acc, q, m, dt)
}

// smoothFields fills E and B with smooth periodic patterns and refreshes
// ghosts + interpolators.
func (r *rig) smoothFields(amp float64) {
	g := r.g
	for iz := 1; iz <= g.NZ; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			for ix := 1; ix <= g.NX; ix++ {
				v := g.Voxel(ix, iy, iz)
				fx := 2 * math.Pi * float64(ix-1) / float64(g.NX)
				fy := 2 * math.Pi * float64(iy-1) / float64(g.NY)
				fz := 2 * math.Pi * float64(iz-1) / float64(g.NZ)
				r.f.Ex[v] = float32(amp * math.Sin(fy+fz))
				r.f.Ey[v] = float32(amp * math.Cos(fz-2*fx))
				r.f.Ez[v] = float32(amp * math.Sin(fx+2*fy))
				r.f.Bx[v] = float32(amp * math.Cos(fy))
				r.f.By[v] = float32(amp * math.Sin(fz))
				r.f.Bz[v] = float32(amp * math.Cos(fx+fy+fz))
			}
		}
	}
	r.f.UpdateGhostE()
	r.f.UpdateGhostB()
	r.ip.LoadPar(nil, r.f)
}

// loadRandom fills the buffer with n random particles (thermal spread
// uth, weight 1).
func (r *rig) loadRandom(n int, uth float64, seed uint64) {
	src := rng.New(seed, 0)
	g := r.g
	for i := 0; i < n; i++ {
		ix := 1 + src.Intn(g.NX)
		iy := 1 + src.Intn(g.NY)
		iz := 1 + src.Intn(g.NZ)
		r.buf.Append(particle.Particle{
			Dx: float32(src.Uniform(-1, 1)), Dy: float32(src.Uniform(-1, 1)), Dz: float32(src.Uniform(-1, 1)),
			Voxel: int32(g.Voxel(ix, iy, iz)),
			Ux:    float32(src.Maxwellian(uth)), Uy: float32(src.Maxwellian(uth)), Uz: float32(src.Maxwellian(uth)),
			W: 1,
		})
	}
}

func TestInterpolatorMatchesUniformField(t *testing.T) {
	r := newRig(4, 4, 4, 1)
	for i := range r.f.Ey {
		r.f.Ey[i] = 3
		r.f.Bz[i] = -2
	}
	r.ip.LoadPar(nil, r.f)
	v := r.g.Voxel(2, 3, 2)
	ex, ey, ez := r.ip.E(v, 0.3, -0.7, 0.2)
	if ex != 0 || math.Abs(float64(ey)-3) > 1e-6 || ez != 0 {
		t.Fatalf("uniform Ey interpolation gave (%g,%g,%g)", ex, ey, ez)
	}
	bx, by, bz := r.ip.B(v, 0.3, -0.7, 0.2)
	if bx != 0 || by != 0 || math.Abs(float64(bz)+2) > 1e-6 {
		t.Fatalf("uniform Bz interpolation gave (%g,%g,%g)", bx, by, bz)
	}
}

func TestInterpolatorLinearGradient(t *testing.T) {
	// Ex varying linearly in y must interpolate exactly.
	r := newRig(4, 4, 4, 1)
	g := r.g
	for iz := 0; iz <= g.NZ+1; iz++ {
		for iy := 0; iy <= g.NY+1; iy++ {
			for ix := 0; ix <= g.NX+1; ix++ {
				r.f.Ex[g.Voxel(ix, iy, iz)] = float32(iy)
			}
		}
	}
	r.ip.LoadPar(nil, r.f)
	v := g.Voxel(2, 2, 2)
	// Cell (·,2,·) spans nodes y=2..3: at dy=-1 Ex=2, at dy=+1 Ex=3.
	ex, _, _ := r.ip.E(v, 0, -1, 0.5)
	if math.Abs(float64(ex)-2) > 1e-6 {
		t.Fatalf("Ex(dy=-1) = %g, want 2", ex)
	}
	ex, _, _ = r.ip.E(v, 0, 1, -0.3)
	if math.Abs(float64(ex)-3) > 1e-6 {
		t.Fatalf("Ex(dy=+1) = %g, want 3", ex)
	}
	ex, _, _ = r.ip.E(v, 0.9, 0, 0)
	if math.Abs(float64(ex)-2.5) > 1e-6 {
		t.Fatalf("Ex(dy=0) = %g, want 2.5", ex)
	}
}

func TestUniformEAcceleration(t *testing.T) {
	r := newRig(8, 4, 4, 1)
	for i := range r.f.Ex {
		r.f.Ex[i] = 0.001
	}
	r.ip.LoadPar(nil, r.f)
	dt := 0.1
	k := r.kernel(-1, 1, dt) // electron
	r.buf.Append(particle.Particle{Voxel: int32(r.g.Voxel(4, 2, 2)), W: 1})
	steps := 100
	for s := 0; s < steps; s++ {
		r.acc.Clear()
		k.AdvanceP(r.buf)
	}
	// du/dt = (q/m)E: after 100 steps ux = -1·0.001·0.1·100 = -0.01.
	got := float64(r.buf.At(0).Ux)
	want := -0.01
	if math.Abs(got-want) > 1e-4*math.Abs(want)+1e-7 {
		t.Fatalf("ux after uniform E = %g, want %g", got, want)
	}
}

func TestGyroOrbit(t *testing.T) {
	r := newRig(8, 8, 4, 1)
	b0 := 0.5
	for i := range r.f.Bz {
		r.f.Bz[i] = float32(b0)
	}
	r.ip.LoadPar(nil, r.f)
	u0 := 0.1
	dt := 0.05
	k := r.kernel(-1, 1, dt)
	r.buf.Append(particle.Particle{Voxel: int32(r.g.Voxel(4, 4, 2)), Ux: float32(u0), W: 1})

	gamma := math.Sqrt(1 + u0*u0)
	wc := b0 / gamma // |q|B/γm
	period := 2 * math.Pi / wc
	steps := int(period / dt)
	for s := 0; s < steps*3; s++ {
		r.acc.Clear()
		k.AdvanceP(r.buf)
	}
	p := r.buf.At(0)
	// |u| is exactly conserved by the rotation (to float32 rounding).
	uMag := math.Sqrt(float64(p.Ux)*float64(p.Ux) + float64(p.Uy)*float64(p.Uy) + float64(p.Uz)*float64(p.Uz))
	if math.Abs(uMag-u0) > 1e-5 {
		t.Fatalf("|u| drifted to %g from %g under pure B", uMag, u0)
	}
	if p.Uz != 0 {
		t.Fatalf("uz became %g under Bz-only rotation", p.Uz)
	}
	// Compare against the exact phase at the actual integrated time.
	// Boris accumulates O((ωc·dt)²) relative phase error.
	tTotal := float64(steps*3) * dt
	want := math.Mod(wc*tTotal, 2*math.Pi)
	got := math.Atan2(float64(p.Uy), float64(p.Ux))
	diff := math.Abs(math.Mod(got-want+3*math.Pi, 2*math.Pi) - math.Pi)
	if diff > 0.01 {
		t.Fatalf("gyro phase error %g rad after 3 periods (got %g, want %g)", diff, got, want)
	}
}

func TestEnergyConservedInPureB(t *testing.T) {
	r := newRig(8, 8, 8, 1)
	r.smoothFields(0) // zero E
	for i := range r.f.Bx {
		r.f.Bx[i] = 0.3
		r.f.By[i] = -0.2
		r.f.Bz[i] = 0.6
	}
	r.ip.LoadPar(nil, r.f)
	r.loadRandom(500, 0.2, 7)
	k := r.kernel(-1, 1, 0.2)
	e0 := r.buf.KineticEnergy(1)
	for s := 0; s < 200; s++ {
		r.acc.Clear()
		k.AdvanceP(r.buf)
	}
	e1 := r.buf.KineticEnergy(1)
	if math.Abs(e1-e0)/e0 > 1e-4 {
		t.Fatalf("kinetic energy changed %g → %g in pure B", e0, e1)
	}
	if r.buf.N() != 500 {
		t.Fatalf("lost particles: %d left", r.buf.N())
	}
}

// lowWrap returns the voxel of node (ix, iy, iz)'s low neighbour on
// axis in a periodic grid: node 1's is node N, by wrap, because the fold
// leaves J on the owning planes 1..N and mirrors nothing into plane 0.
func lowWrap(g *grid.Grid, ix, iy, iz, axis int) int {
	n := [3]int{g.NX, g.NY, g.NZ}
	i := [3]int{ix, iy, iz}
	if i[axis]--; i[axis] == 0 {
		i[axis] = n[axis]
	}
	return g.Voxel(i[0], i[1], i[2])
}

// TestContinuity is the central correctness test of the whole PIC stack:
// for arbitrary smooth fields and a time step large enough that many
// particles cross cell faces, the deposited current must satisfy the
// discrete continuity equation (ρ_new − ρ_old)/dt + div J = 0 at every
// node, which is exactly what keeps div E = ρ without global cleaning.
func TestContinuity(t *testing.T) {
	r := newRig(6, 5, 4, 0.5)
	r.smoothFields(0.3)
	r.loadRandom(4000, 0.5, 99) // hot: plenty of face crossings
	dt := 0.24                  // ≈ 0.83 of CFL
	k := r.kernel(-1, 1, dt)

	g := r.g
	rho0 := make([]float32, g.NV())
	rho1 := make([]float32, g.NV())
	DepositRho(g, r.buf, -1, rho0)
	r.f.FoldNodeScalar(rho0)

	r.f.ClearJ()
	r.acc.Clear()
	k.AdvanceP(r.buf)
	if k.NMoved == 0 {
		t.Fatal("test did not exercise the mover path; increase uth or dt")
	}
	r.acc.UnloadPar(nil, r.f, dt)
	r.f.FoldGhostJ()

	DepositRho(g, r.buf, -1, rho1)
	r.f.FoldNodeScalar(rho1)

	rx := 1 / g.DX
	ry := 1 / g.DY
	rz := 1 / g.DZ
	var maxErr, scale float64
	for iz := 1; iz <= g.NZ; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			for ix := 1; ix <= g.NX; ix++ {
				v := g.Voxel(ix, iy, iz)
				divJ := rx*float64(r.f.Jx[v]-r.f.Jx[lowWrap(g, ix, iy, iz, 0)]) +
					ry*float64(r.f.Jy[v]-r.f.Jy[lowWrap(g, ix, iy, iz, 1)]) +
					rz*float64(r.f.Jz[v]-r.f.Jz[lowWrap(g, ix, iy, iz, 2)])
				drho := float64(rho1[v]-rho0[v]) / dt
				err := math.Abs(drho + divJ)
				if err > maxErr {
					maxErr = err
				}
				if s := math.Abs(drho); s > scale {
					scale = s
				}
			}
		}
	}
	if maxErr > 1e-4*scale {
		t.Fatalf("continuity violated: max |dρ/dt + divJ| = %g vs dρ/dt scale %g", maxErr, scale)
	}
}

// TestContinuityRefPusher runs the same check through the reference
// pusher, which shares the deposition machinery.
func TestContinuityRefPusher(t *testing.T) {
	r := newRig(5, 4, 6, 0.5)
	r.smoothFields(0.3)
	r.loadRandom(2000, 0.5, 31)
	dt := 0.24
	k := r.kernel(-1, 1, dt)

	g := r.g
	rho0 := make([]float32, g.NV())
	rho1 := make([]float32, g.NV())
	DepositRho(g, r.buf, -1, rho0)
	r.f.FoldNodeScalar(rho0)
	r.f.ClearJ()
	r.acc.Clear()
	k.AdvancePRef(r.buf, r.f)
	r.acc.UnloadPar(nil, r.f, dt)
	r.f.FoldGhostJ()
	DepositRho(g, r.buf, -1, rho1)
	r.f.FoldNodeScalar(rho1)

	var maxErr, scale float64
	for iz := 1; iz <= g.NZ; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			for ix := 1; ix <= g.NX; ix++ {
				v := g.Voxel(ix, iy, iz)
				divJ := float64(r.f.Jx[v]-r.f.Jx[lowWrap(g, ix, iy, iz, 0)])/g.DX +
					float64(r.f.Jy[v]-r.f.Jy[lowWrap(g, ix, iy, iz, 1)])/g.DY +
					float64(r.f.Jz[v]-r.f.Jz[lowWrap(g, ix, iy, iz, 2)])/g.DZ
				drho := float64(rho1[v]-rho0[v]) / dt
				if e := math.Abs(drho + divJ); e > maxErr {
					maxErr = e
				}
				if s := math.Abs(drho); s > scale {
					scale = s
				}
			}
		}
	}
	if maxErr > 1e-4*scale {
		t.Fatalf("ref-pusher continuity violated: %g vs scale %g", maxErr, scale)
	}
}

func TestOptimizedMatchesReference(t *testing.T) {
	mk := func() *rig {
		r := newRig(6, 6, 6, 0.5)
		r.smoothFields(0.1)
		r.loadRandom(300, 0.2, 4)
		return r
	}
	a, b := mk(), mk()
	dt := 0.2
	ka := a.kernel(-1, 1, dt)
	kb := b.kernel(-1, 1, dt)
	for s := 0; s < 10; s++ {
		a.acc.Clear()
		ka.AdvanceP(a.buf)
		b.acc.Clear()
		kb.AdvancePRef(b.buf, b.f)
	}
	if a.buf.N() != b.buf.N() {
		t.Fatalf("particle counts diverged: %d vs %d", a.buf.N(), b.buf.N())
	}
	for i := 0; i < a.buf.N(); i++ {
		pa, pb := a.buf.At(i), b.buf.At(i)
		if pa.Voxel != pb.Voxel {
			t.Fatalf("particle %d voxel %d vs %d", i, pa.Voxel, pb.Voxel)
		}
		du := math.Abs(float64(pa.Ux-pb.Ux)) + math.Abs(float64(pa.Uy-pb.Uy)) + math.Abs(float64(pa.Uz-pb.Uz))
		if du > 2e-5 {
			t.Fatalf("particle %d momentum diverged by %g after 10 steps", i, du)
		}
	}
}

func TestWrapCrossing(t *testing.T) {
	r := newRig(4, 4, 4, 1)
	r.ip.LoadPar(nil, r.f) // zero fields
	dt := 0.4
	k := r.kernel(-1, 1, dt)
	// Fast particle moving +x near the high-x boundary of cell 4.
	u := float32(10) // v ≈ c
	r.buf.Append(particle.Particle{Dx: 0.9, Voxel: int32(r.g.Voxel(4, 2, 2)), Ux: u, W: 1})
	r.acc.Clear()
	k.AdvanceP(r.buf)
	p := r.buf.At(0)
	ix, iy, iz := r.g.Unvoxel(int(p.Voxel))
	if ix != 1 || iy != 2 || iz != 2 {
		t.Fatalf("wrapped particle in cell (%d,%d,%d), want (1,2,2)", ix, iy, iz)
	}
	if k.NMoved != 1 {
		t.Fatalf("NMoved = %d, want 1", k.NMoved)
	}
	// Total displacement ≈ v·dt·2/dx = 0.796 offsets: from 0.9 → cross at
	// 1 → re-enter at −1 → end near −1 + 0.696.
	if p.Dx < -1 || p.Dx > -0.2 {
		t.Fatalf("wrapped particle Dx = %g", p.Dx)
	}
}

func TestReflectBoundary(t *testing.T) {
	r := newRig(4, 4, 4, 1)
	r.ip.LoadPar(nil, r.f)
	dt := 0.4
	k := r.kernel(-1, 1, dt)
	k.Bound[1] = Reflect // XHi
	r.buf.Append(particle.Particle{Dx: 0.9, Voxel: int32(r.g.Voxel(4, 2, 2)), Ux: 10, W: 1})
	r.acc.Clear()
	k.AdvanceP(r.buf)
	p := r.buf.At(0)
	ix, _, _ := r.g.Unvoxel(int(p.Voxel))
	if ix != 4 {
		t.Fatalf("reflected particle left cell 4 (now %d)", ix)
	}
	if p.Ux >= 0 {
		t.Fatalf("reflected particle Ux = %g, want negative", p.Ux)
	}
	if p.Dx > 1 || p.Dx < 0 {
		t.Fatalf("reflected particle Dx = %g", p.Dx)
	}
}

func TestAbsorbBoundary(t *testing.T) {
	r := newRig(4, 4, 4, 1)
	r.ip.LoadPar(nil, r.f)
	k := r.kernel(-1, 1, 0.4)
	k.Bound[0] = Absorb // XLo
	r.buf.Append(particle.Particle{Dx: -0.9, Voxel: int32(r.g.Voxel(1, 2, 2)), Ux: -10, W: 1})
	r.buf.Append(particle.Particle{Dx: 0, Voxel: int32(r.g.Voxel(2, 2, 2)), W: 1})
	r.acc.Clear()
	k.AdvanceP(r.buf)
	if r.buf.N() != 1 {
		t.Fatalf("buffer has %d particles after absorption, want 1", r.buf.N())
	}
	if k.NLost != 1 {
		t.Fatalf("NLost = %d, want 1", k.NLost)
	}
}

func TestMigrateBoundary(t *testing.T) {
	r := newRig(4, 4, 4, 1)
	r.ip.LoadPar(nil, r.f)
	dt := 0.4
	k := r.kernel(-1, 1, dt)
	k.Bound[1] = Migrate // XHi
	r.buf.Append(particle.Particle{Dx: 0.9, Dy: 0.1, Voxel: int32(r.g.Voxel(4, 3, 2)), Ux: 10, W: 2})
	r.acc.Clear()
	k.AdvanceP(r.buf)
	if r.buf.N() != 0 {
		t.Fatalf("migrating particle still local")
	}
	if len(k.Out[1]) != 1 {
		t.Fatalf("outgoing[XHi] has %d particles, want 1", len(k.Out[1]))
	}
	out := k.Out[1][0]
	if out.P.Dx != -1 {
		t.Fatalf("outgoing offset Dx = %g, want -1 (entering side)", out.P.Dx)
	}
	if out.P.W != 2 || out.P.Ux != 10 {
		t.Fatalf("outgoing particle corrupted: %+v", out.P)
	}
	if out.DispX <= 0 {
		t.Fatalf("outgoing remaining displacement %g, want >0", out.DispX)
	}
	// Receiving side: remap to cell 1 and finish.
	out.P.Voxel = int32(r.g.Voxel(1, 3, 2))
	k2 := r.kernel(-1, 1, dt)
	buf2 := particle.NewBuffer(0)
	k2.FinishMove(buf2, out)
	if buf2.N() != 1 {
		t.Fatalf("FinishMove did not land the particle")
	}
	p := buf2.At(0)
	ix, iy, _ := r.g.Unvoxel(int(p.Voxel))
	if ix != 1 || iy != 3 {
		t.Fatalf("migrated particle at cell (%d,%d), want (1,3)", ix, iy)
	}
}

func TestCornerCrossing(t *testing.T) {
	// Diagonal crossing of x and y faces in one step.
	r := newRig(4, 4, 4, 1)
	r.ip.LoadPar(nil, r.f)
	dt := 0.4
	k := r.kernel(-1, 1, dt)
	r.buf.Append(particle.Particle{Dx: 0.95, Dy: 0.95, Voxel: int32(r.g.Voxel(2, 2, 2)), Ux: 10, Uy: 10, W: 1})
	r.acc.Clear()
	k.AdvanceP(r.buf)
	p := r.buf.At(0)
	ix, iy, iz := r.g.Unvoxel(int(p.Voxel))
	if ix != 3 || iy != 3 || iz != 2 {
		t.Fatalf("corner crossing landed at (%d,%d,%d), want (3,3,2)", ix, iy, iz)
	}
	if k.NSeg < 2 {
		t.Fatalf("NSeg = %d, want ≥2 for a corner crossing", k.NSeg)
	}
}

func TestDepositRhoTotalCharge(t *testing.T) {
	r := newRig(4, 4, 4, 0.5)
	r.loadRandom(1000, 0.1, 5)
	rho := make([]float32, r.g.NV())
	DepositRho(r.g, r.buf, -1, rho)
	r.f.FoldNodeScalar(rho)
	// ∫ρdV over interior nodes = q·Σw = −1000.
	var total float64
	for iz := 1; iz <= r.g.NZ; iz++ {
		for iy := 1; iy <= r.g.NY; iy++ {
			for ix := 1; ix <= r.g.NX; ix++ {
				total += float64(rho[r.g.Voxel(ix, iy, iz)])
			}
		}
	}
	total *= r.g.Volume()
	if math.Abs(total+1000) > 0.01 {
		t.Fatalf("total deposited charge = %g, want -1000", total)
	}
}

func TestFlopsCounter(t *testing.T) {
	r := newRig(4, 4, 4, 1)
	r.ip.LoadPar(nil, r.f)
	k := r.kernel(-1, 1, 0.05)
	r.loadRandom(100, 0.01, 3)
	r.acc.Clear()
	k.AdvanceP(r.buf)
	if k.NPushed != 100 {
		t.Fatalf("NPushed = %d", k.NPushed)
	}
	want := int64(100*FlopsPerPush) + k.NSeg*FlopsPerSegment
	if k.Flops() != want {
		t.Fatalf("Flops() = %d, want %d", k.Flops(), want)
	}
	k.ResetStats()
	if k.Flops() != 0 {
		t.Fatal("ResetStats did not clear counters")
	}
}

func TestClearOutgoing(t *testing.T) {
	r := newRig(4, 4, 4, 1)
	r.ip.LoadPar(nil, r.f)
	k := r.kernel(-1, 1, 0.4)
	k.Bound[1] = Migrate
	r.buf.Append(particle.Particle{Dx: 0.99, Voxel: int32(r.g.Voxel(4, 2, 2)), Ux: 10, W: 1})
	r.acc.Clear()
	k.AdvanceP(r.buf)
	if len(k.Out[1]) != 1 {
		t.Fatal("setup failed")
	}
	k.ClearOutgoing()
	if len(k.Out[1]) != 0 {
		t.Fatal("ClearOutgoing left particles")
	}
}
