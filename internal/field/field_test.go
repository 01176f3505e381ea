package field

import (
	"fmt"
	"math"
	"testing"

	"govpic/internal/grid"
	"govpic/internal/rng"
)

// quasi1D builds an nx×1×1 grid with spacing dx (dy=dz=1).
func quasi1D(nx int, dx float64) *grid.Grid {
	return grid.MustNew(nx, 1, 1, dx, 1, 1)
}

// TestNewRejectsMixedPeriodic refuses an axis that is periodic on one
// face only, whatever the other face holds: a wall, or Remote (a
// decomposed periodic axis is Remote on both faces).
func TestNewRejectsMixedPeriodic(t *testing.T) {
	g := grid.MustNew(4, 4, 4, 1, 1, 1)
	for _, c := range []struct{ lo, hi BC }{
		{Periodic, Conductor}, {Absorbing, Periodic}, {Periodic, Remote}, {Remote, Periodic},
	} {
		var bc [NumFaces]BC
		bc[YLo], bc[YHi] = c.lo, c.hi
		if _, err := New(g, bc); err == nil {
			t.Errorf("accepted y faces %v/%v", c.lo, c.hi)
		}
	}
}

// TestNewDecomposedValidatesPeriodicRemote refuses a periodic x axis
// whose low face alone has been handed to a neighbour rank.
func TestNewDecomposedValidatesPeriodicRemote(t *testing.T) {
	g := grid.MustNew(4, 4, 4, 1, 1, 1)
	var bc [NumFaces]BC // all periodic
	bc[XLo] = Remote
	if _, err := New(g, bc); err == nil {
		t.Fatal("accepted periodic axis with a single remote face")
	}
}

func TestBCStringAndFaceHelpers(t *testing.T) {
	if Periodic.String() != "periodic" || Conductor.String() != "conductor" || Absorbing.String() != "absorbing" ||
		Remote.String() != "remote" {
		t.Fatal("BC strings wrong")
	}
	if XHi.Axis() != 0 || !XHi.High() || ZLo.Axis() != 2 || ZLo.High() {
		t.Fatal("face helpers wrong")
	}
}

func TestClearJ(t *testing.T) {
	f := NewPeriodic(grid.MustNew(2, 2, 2, 1, 1, 1))
	f.Jx[3] = 1
	f.Jy[5] = 2
	f.Jz[7] = 3
	f.ClearJ()
	for i := range f.Jx {
		if f.Jx[i] != 0 || f.Jy[i] != 0 || f.Jz[i] != 0 {
			t.Fatal("ClearJ left nonzero currents")
		}
	}
}

func TestPeriodicGhostE(t *testing.T) {
	g := grid.MustNew(4, 3, 2, 1, 1, 1)
	f := NewPeriodic(g)
	for iz := 1; iz <= g.NZ; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			for ix := 1; ix <= g.NX; ix++ {
				f.Ey[g.Voxel(ix, iy, iz)] = float32(100*ix + 10*iy + iz)
			}
		}
	}
	f.UpdateGhostE()
	// High boundary plane along x equals plane 1; ghost 0 equals plane NX.
	for iz := 1; iz <= g.NZ; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			if f.Ey[g.Voxel(g.NX+1, iy, iz)] != f.Ey[g.Voxel(1, iy, iz)] {
				t.Fatal("x-high ghost not copied from plane 1")
			}
			if f.Ey[g.Voxel(0, iy, iz)] != f.Ey[g.Voxel(g.NX, iy, iz)] {
				t.Fatal("x-low ghost not copied from plane NX")
			}
		}
	}
}

func TestFoldGhostJ(t *testing.T) {
	g := grid.MustNew(4, 4, 4, 1, 1, 1)
	f := NewPeriodic(g)
	// Deposit current on the high-boundary plane; folding must move it
	// to plane 1 and leave plane N+1 zero (no copy is mirrored back).
	v := g.Voxel(2, g.NY+1, 3)
	f.Jx[v] = 2.5
	f.FoldGhostJ()
	if got := f.Jx[g.Voxel(2, 1, 3)]; got != 2.5 {
		t.Fatalf("folded jx = %g, want 2.5", got)
	}
	if got := f.Jx[v]; got != 0 {
		t.Fatalf("plane N+1 after fold = %g, want 0", got)
	}
}

// TestVacuumDispersion checks the numerical dispersion relation of the
// Yee solver: a standing mode Ey ∝ sin(kx) in vacuum oscillates at
// ω = (2/dt)·asin((dt/dx)·sin(k·dx/2)).
func TestVacuumDispersion(t *testing.T) {
	nx := 64
	dx := 0.5
	g := quasi1D(nx, dx)
	f := NewPeriodic(g)
	k := 2 * math.Pi / (float64(nx) * dx) * 3 // mode 3
	for ix := 1; ix <= nx; ix++ {
		x := (float64(ix-1) + 0.0) * dx // Ey node position along x
		f.Ey[g.Voxel(ix, 1, 1)] = float32(math.Sin(k * x))
	}
	f.UpdateGhostE()
	dt := 0.45 * dx
	wantOmega := 2 / dt * math.Asin(dt/dx*math.Sin(k*dx/2))

	// Track the oscillation at a probe and count zero crossings.
	probe := g.Voxel(7, 1, 1)
	prev := float64(f.Ey[probe])
	crossings := 0
	steps := 0
	maxSteps := 20000
	wantCross := 20
	var lastCrossT, firstCrossT float64
	for steps = 1; steps <= maxSteps && crossings < wantCross; steps++ {
		f.AdvanceBPar(nil, dt, 0.5)
		f.AdvanceEPar(nil, dt)
		f.AdvanceBPar(nil, dt, 0.5)
		cur := float64(f.Ey[probe])
		if prev < 0 && cur >= 0 || prev > 0 && cur <= 0 {
			// linear interpolation of crossing time
			tc := (float64(steps-1) + prev/(prev-cur)) * dt
			if crossings == 0 {
				firstCrossT = tc
			}
			lastCrossT = tc
			crossings++
		}
		prev = cur
	}
	if crossings < wantCross {
		t.Fatalf("only %d zero crossings in %d steps", crossings, steps)
	}
	period := 2 * (lastCrossT - firstCrossT) / float64(wantCross-1)
	gotOmega := 2 * math.Pi / period
	if math.Abs(gotOmega-wantOmega) > 0.01*wantOmega {
		t.Fatalf("numerical ω = %g, want %g (±1%%)", gotOmega, wantOmega)
	}
}

func TestVacuumEnergyConservation(t *testing.T) {
	g := grid.MustNew(16, 8, 8, 0.5, 0.5, 0.5)
	f := NewPeriodic(g)
	// Random-ish smooth initial E.
	for iz := 1; iz <= g.NZ; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			for ix := 1; ix <= g.NX; ix++ {
				v := g.Voxel(ix, iy, iz)
				f.Ex[v] = float32(math.Sin(2*math.Pi*float64(iy)/8) * math.Cos(2*math.Pi*float64(iz)/8))
				f.Ey[v] = float32(math.Sin(2 * math.Pi * float64(iz) / 8))
				f.Ez[v] = float32(math.Cos(2 * math.Pi * float64(ix) / 16))
			}
		}
	}
	f.UpdateGhostE()
	dt := 0.9 * g.CourantLimit()
	e0 := f.Energy()
	minE, maxE := e0, e0
	for s := 0; s < 2000; s++ {
		f.AdvanceBPar(nil, dt, 0.5)
		f.AdvanceEPar(nil, dt)
		f.AdvanceBPar(nil, dt, 0.5)
		e := f.Energy()
		minE = math.Min(minE, e)
		maxE = math.Max(maxE, e)
	}
	// Yee conserves a staggered energy exactly; the collocated measure
	// oscillates but must not drift.
	if (maxE-minE)/e0 > 0.05 {
		t.Fatalf("energy band %.3g..%.3g around %.3g too wide", minE, maxE, e0)
	}
	if math.Abs(f.Energy()-e0)/e0 > 0.05 {
		t.Fatalf("energy drifted from %g to %g", e0, f.Energy())
	}
}

func TestDivBPreserved(t *testing.T) {
	g := grid.MustNew(12, 12, 12, 1, 1, 1)
	f := NewPeriodic(g)
	// Arbitrary smooth E; div B must remain 0 to float32 rounding since
	// the discrete curl has identically zero divergence.
	for iz := 1; iz <= g.NZ; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			for ix := 1; ix <= g.NX; ix++ {
				v := g.Voxel(ix, iy, iz)
				f.Ex[v] = float32(math.Sin(2*math.Pi*float64(iy)/12) + math.Cos(2*math.Pi*float64(iz)/12))
				f.Ey[v] = float32(math.Sin(2 * math.Pi * float64(ix+iz) / 12))
				f.Ez[v] = float32(math.Cos(2 * math.Pi * float64(ix+iy) / 12))
			}
		}
	}
	f.UpdateGhostE()
	dt := 0.5 * g.CourantLimit()
	for s := 0; s < 200; s++ {
		f.AdvanceBPar(nil, dt, 0.5)
		f.AdvanceEPar(nil, dt)
		f.AdvanceBPar(nil, dt, 0.5)
	}
	_, err := f.DivB(nil)
	if err > 1e-5 {
		t.Fatalf("div B RMS = %g after 200 steps, want ≲1e-5 (float32 rounding)", err)
	}
}

func TestMurAbsorbsPulse(t *testing.T) {
	nx := 200
	dx := 0.5
	g := quasi1D(nx, dx)
	bc := [NumFaces]BC{XLo: Absorbing, XHi: Absorbing, YLo: Periodic, YHi: Periodic, ZLo: Periodic, ZHi: Periodic}
	f := MustNew(g, bc)
	// Right-going Gaussian pulse in the middle: Ey = Bz = gauss(x).
	x0 := float64(nx) * dx / 2
	for ix := 1; ix <= nx; ix++ {
		xe := float64(ix-1) * dx         // Ey node
		xb := (float64(ix-1) + 0.5) * dx // Bz face center
		f.Ey[g.Voxel(ix, 1, 1)] = float32(math.Exp(-(xe - x0) * (xe - x0) / 16))
		f.Bz[g.Voxel(ix, 1, 1)] = float32(math.Exp(-(xb - x0) * (xb - x0) / 16))
	}
	f.UpdateGhostE()
	f.UpdateGhostB()
	e0 := f.Energy()
	dt := 0.95 * dx
	steps := int(2.5 * float64(nx) * dx / dt) // plenty of time to leave
	for s := 0; s < steps; s++ {
		f.AdvanceBPar(nil, dt, 0.5)
		f.AdvanceEPar(nil, dt)
		f.AdvanceBPar(nil, dt, 0.5)
	}
	if rem := f.Energy() / e0; rem > 0.01 {
		t.Fatalf("residual energy fraction %g after pulse exit, want <1%%", rem)
	}
}

func TestConductorReflectsPulse(t *testing.T) {
	nx := 200
	dx := 0.5
	g := quasi1D(nx, dx)
	bc := [NumFaces]BC{XLo: Conductor, XHi: Conductor, YLo: Periodic, YHi: Periodic, ZLo: Periodic, ZHi: Periodic}
	f := MustNew(g, bc)
	x0 := float64(nx) * dx / 2
	for ix := 1; ix <= nx; ix++ {
		xe := float64(ix-1) * dx
		xb := (float64(ix-1) + 0.5) * dx
		f.Ey[g.Voxel(ix, 1, 1)] = float32(math.Exp(-(xe - x0) * (xe - x0) / 16))
		f.Bz[g.Voxel(ix, 1, 1)] = float32(math.Exp(-(xb - x0) * (xb - x0) / 16))
	}
	f.UpdateGhostE()
	f.UpdateGhostB()
	e0 := f.Energy()
	dt := 0.95 * dx
	steps := int(3 * float64(nx) * dx / dt)
	for s := 0; s < steps; s++ {
		f.AdvanceBPar(nil, dt, 0.5)
		f.AdvanceEPar(nil, dt)
		f.AdvanceBPar(nil, dt, 0.5)
	}
	if rel := math.Abs(f.Energy()-e0) / e0; rel > 0.02 {
		t.Fatalf("PEC box lost/gained %g of pulse energy, want <2%%", rel)
	}
}

func TestCleanDivBReducesError(t *testing.T) {
	g := grid.MustNew(16, 16, 16, 1, 1, 1)
	f := NewPeriodic(g)
	// Inject a grid-scale (Nyquist) div-B error — the kind rounding
	// produces and the kind Marder diffusion is designed to kill fast.
	for iz := 1; iz <= g.NZ; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			for ix := 1; ix <= g.NX; ix++ {
				f.Bx[g.Voxel(ix, iy, iz)] = float32(1 - 2*((ix+iy+iz)%2))
			}
		}
	}
	f.UpdateGhostB()
	_, before := f.DivB(nil)
	after := f.CleanDivB(50, nil)
	if after > before/100 {
		t.Fatalf("Marder div-B: before %g, after %g — insufficient damping", before, after)
	}
}

func TestCleanDivEDrivesTowardRho(t *testing.T) {
	g := grid.MustNew(16, 16, 16, 1, 1, 1)
	f := NewPeriodic(g)
	rho := make([]float32, g.NV())
	// Sinusoidal charge density, zero E: the cleaner must build the
	// matching electrostatic field.
	for iz := 1; iz <= g.NZ; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			for ix := 1; ix <= g.NX; ix++ {
				rho[g.Voxel(ix, iy, iz)] = float32(math.Sin(2 * math.Pi * float64(ix-1) / 16))
			}
		}
	}
	_, before := f.DivEError(rho, nil)
	after := f.CleanDivE(rho, 200, nil)
	if after > before/5 {
		t.Fatalf("Marder div-E: before %g, after %g — insufficient convergence", before, after)
	}
}

func TestEnergyOfKnownField(t *testing.T) {
	g := grid.MustNew(4, 4, 4, 0.5, 0.5, 0.5)
	f := NewPeriodic(g)
	for iz := 1; iz <= 4; iz++ {
		for iy := 1; iy <= 4; iy++ {
			for ix := 1; ix <= 4; ix++ {
				f.Ex[g.Voxel(ix, iy, iz)] = 2
			}
		}
	}
	// ½·E²·V = ½·4·(64·0.125) = 16
	if got := f.EnergyE(); math.Abs(got-16) > 1e-6 {
		t.Fatalf("EnergyE = %g, want 16", got)
	}
	if f.EnergyB() != 0 {
		t.Fatalf("EnergyB = %g, want 0", f.EnergyB())
	}
}

func TestMurAbsorbsOnYAxis(t *testing.T) {
	// Same absorbing test rotated onto y to cover the axis-generic code.
	ny := 200
	dy := 0.5
	g := grid.MustNew(1, ny, 1, 1, dy, 1)
	bc := [NumFaces]BC{
		XLo: Periodic, XHi: Periodic,
		YLo: Absorbing, YHi: Absorbing,
		ZLo: Periodic, ZHi: Periodic,
	}
	f := MustNew(g, bc)
	y0 := float64(ny) * dy / 2
	for iy := 1; iy <= ny; iy++ {
		ye := float64(iy-1) * dy
		yb := (float64(iy-1) + 0.5) * dy
		// +y-going wave: Ez with Bx (S_y = Ez·Bx for ẑ×x̂ = ŷ).
		f.Ez[g.Voxel(1, iy, 1)] = float32(math.Exp(-(ye - y0) * (ye - y0) / 16))
		f.Bx[g.Voxel(1, iy, 1)] = float32(math.Exp(-(yb - y0) * (yb - y0) / 16))
	}
	f.UpdateGhostE()
	f.UpdateGhostB()
	e0 := f.Energy()
	dt := 0.95 * dy
	steps := int(2.5 * float64(ny) * dy / dt)
	for s := 0; s < steps; s++ {
		f.AdvanceBPar(nil, dt, 0.5)
		f.AdvanceEPar(nil, dt)
		f.AdvanceBPar(nil, dt, 0.5)
	}
	if rem := f.Energy() / e0; rem > 0.01 {
		t.Fatalf("y-axis Mur left %g of the pulse energy", rem)
	}
}

var faceNames = [NumFaces]string{"XLo", "XHi", "YLo", "YHi", "ZLo", "ZHi"}

// allArrays lists every field array of f: E, B, then J.
func allArrays(f *Fields) [][]float32 {
	return [][]float32{f.Ex, f.Ey, f.Ez, f.Bx, f.By, f.Bz, f.Jx, f.Jy, f.Jz}
}

// TestRemoteFaceSkipsLocalBC runs every ghost routine with one face
// Remote and its opposite face a wall or Remote, on random arrays. The
// other two axes are Remote too, so only the opposite face is local. The
// arrays must come out as the per-element oracle leaves them: the wall's
// planes get what the routine does to a wall, everything else is as it
// was. The _nan rows start the wall's ghost plane as NaN in every array,
// so the updates must write all of it but Mur's tangential E: a ghost
// prime leaves no stale value beyond a wall.
func TestRemoteFaceSkipsLocalBC(t *testing.T) {
	g := grid.MustNew(4, 3, 5, 1, 1, 1)
	// Each wall oracle edits want (E, B, J, then the scalar) as the
	// routine treats a local non-periodic face of the given BC.
	routines := []struct {
		name string
		run  func(f *Fields, scalar []float32)
		wall func(want [][]float32, face Face, bc BC)
	}{
		{"UpdateGhostE", func(f *Fields, _ []float32) { f.UpdateGhostE() },
			func(want [][]float32, face Face, bc BC) {
				axis := face.Axis()
				ghost, comps := wallGhost(g, face), []int{0, 1, 2}
				if face.High() {
					comps = []int{axis} // the BC owns tangential E there
				}
				for _, c := range comps {
					forEachInPlane(g, axis, ghost, ghost, func(di, _ int) { want[c][di] = 0 })
				}
				if bc != Conductor {
					return // Mur runs after the advance, not here
				}
				b, _ := planeIndices(g, face)
				for _, c := range []int{(axis + 1) % 3, (axis + 2) % 3} {
					forEachInPlane(g, axis, b, b, func(di, _ int) { want[c][di] = 0 })
				}
			}},
		{"UpdateGhostB", func(f *Fields, _ []float32) { f.UpdateGhostB() },
			func(want [][]float32, face Face, _ BC) {
				ghost := wallGhost(g, face)
				for c := 3; c < 6; c++ {
					forEachInPlane(g, face.Axis(), ghost, ghost, func(di, _ int) { want[c][di] = 0 })
				}
			}},
		{"FoldGhostJ", func(f *Fields, _ []float32) { f.FoldGhostJ() }, func([][]float32, Face, BC) {}},
		{"FoldNodeScalar", (*Fields).FoldNodeScalar, func([][]float32, Face, BC) {}},
		{"FillCellGhost", (*Fields).FillCellGhost, nil},
		{"FillNodeGhost", (*Fields).FillNodeGhost, nil},
	}
	fill := func(want [][]float32, face Face, _ BC) {
		dst, src := 0, 1
		if n := axisN(g, face.Axis()); face.High() {
			dst, src = n+1, n
		}
		forEachInPlane(g, face.Axis(), dst, src, func(di, si int) { want[9][di] = want[9][si] })
	}
	r := rng.New(65, 0)
	remoteAll := [NumFaces]BC{Remote, Remote, Remote, Remote, Remote, Remote}
	for _, rt := range routines {
		if rt.wall == nil {
			rt.wall = fill
		}
		for face := Face(0); face < NumFaces; face++ {
			for _, row := range []struct {
				opp BC
				nan bool
			}{{Conductor, false}, {Absorbing, false}, {Remote, false}, {Conductor, true}, {Absorbing, true}} {
				opp, nan := row.opp, row.nan
				name := fmt.Sprintf("%s/%s_remote_opposite_%v", rt.name, faceNames[face], opp)
				if nan {
					name += "_nan"
				}
				t.Run(name, func(t *testing.T) {
					bc := remoteAll
					bc[face^1] = opp
					f := MustNew(g, bc)
					scalar := make([]float32, g.NV())
					got := append(allArrays(f), scalar)
					want := make([][]float32, len(got))
					for i, a := range got {
						for v := range a {
							a[v] = float32(r.Uniform(-1, 1))
						}
						if ghost := wallGhost(g, face^1); nan {
							forEachInPlane(g, face.Axis(), ghost, ghost, func(di, _ int) { a[di] = float32(math.NaN()) })
						}
						want[i] = append([]float32(nil), a...)
					}
					rt.run(f, scalar)
					if opp != Remote {
						rt.wall(want, face^1, opp)
					}
					for i := range got {
						for v := range got[i] {
							if math.Float32bits(got[i][v]) != math.Float32bits(want[i][v]) {
								ix, iy, iz := g.Unvoxel(v)
								t.Fatalf("array %d voxel (%d,%d,%d) = %g, want %g", i, ix, iy, iz, got[i][v], want[i][v])
							}
						}
					}
				})
			}
		}
	}
}

// wallGhost returns the ghost plane beyond a wall on face: 0 beyond a
// low face, N+1 beyond a high one.
func wallGhost(g *grid.Grid, face Face) int {
	if face.High() {
		return axisN(g, face.Axis()) + 1
	}
	return 0
}
