package field

// Divergence cleaning à la Marder (1987), the scheme VPIC applies
// periodically to control accumulated div-B rounding error and div-E
// inconsistency: a diffusive correction
//
//	B ← B + κ·∇(div B)        E ← E + κ·∇(div E − ρ)
//
// with κ below the explicit-diffusion stability bound, so each pass
// damps divergence error at all wavelengths (fastest at the grid scale,
// where the error lives).
//
// Multi-rank runs drive the single-pass primitives (MarderPassE/B) with
// an exchange of the error scalar's ghost planes between passes; the
// CleanDivE/CleanDivB conveniences below are the single-rank form.

// marderKappa returns a stable diffusion coefficient for the grid:
// explicit stability requires κ·2·Σ 1/d² ≤ 1; we take 80% of that.
func (f *Fields) marderKappa() float64 {
	g := f.G
	s := 1/(g.DX*g.DX) + 1/(g.DY*g.DY) + 1/(g.DZ*g.DZ)
	return 0.4 / s
}

// MarderPassE applies one Marder gradient update to E from the
// node-centered error field err = div E − ρ, whose ghost planes
// (including remote ones) must be current. It does not refresh E ghosts.
func (f *Fields) MarderPassE(err []float32) {
	g := f.G
	sx, sy, _ := g.Strides()
	sxy := sx * sy
	k := f.marderKappa()
	kx := float32(k / g.DX)
	ky := float32(k / g.DY)
	kz := float32(k / g.DZ)
	for iz := 1; iz <= g.NZ; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			v := g.Voxel(1, iy, iz)
			for ix := 1; ix <= g.NX; ix++ {
				f.Ex[v] += kx * (err[v+1] - err[v])
				f.Ey[v] += ky * (err[v+sx] - err[v])
				f.Ez[v] += kz * (err[v+sxy] - err[v])
				v++
			}
		}
	}
}

// MarderPassB applies one Marder gradient update to B from the
// cell-centered div B field, whose ghost planes must be current. It does
// not refresh B ghosts.
func (f *Fields) MarderPassB(div []float32) {
	g := f.G
	sx, sy, _ := g.Strides()
	sxy := sx * sy
	k := f.marderKappa()
	kx := float32(k / g.DX)
	ky := float32(k / g.DY)
	kz := float32(k / g.DZ)
	for iz := 1; iz <= g.NZ; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			v := g.Voxel(1, iy, iz)
			for ix := 1; ix <= g.NX; ix++ {
				f.Bx[v] += kx * (div[v] - div[v-1])
				f.By[v] += ky * (div[v] - div[v-sx])
				f.Bz[v] += kz * (div[v] - div[v-sxy])
				v++
			}
		}
	}
}

// CleanDivB applies the given number of Marder passes to B and returns
// the interior RMS of div B after the final pass. scratch may be nil.
// Single-rank form: ghost handling is local.
func (f *Fields) CleanDivB(passes int, scratch []float32) float64 {
	var div []float32
	var err float64
	for p := 0; p < passes; p++ {
		div, err = f.DivB(scratch)
		scratch = div
		f.FillCellGhost(div)
		f.MarderPassB(div)
		f.UpdateGhostB()
	}
	if passes > 0 {
		_, err = f.DivB(scratch)
	}
	return err
}

// CleanDivE applies Marder passes driving div E toward the node charge
// density rho, and returns the interior RMS of div E − ρ after the final
// pass. scratch may be nil. Single-rank form.
func (f *Fields) CleanDivE(rho []float32, passes int, scratch []float32) float64 {
	var errField []float32
	var err float64
	for p := 0; p < passes; p++ {
		errField, err = f.DivEError(rho, scratch)
		scratch = errField
		f.FillNodeGhost(errField)
		f.MarderPassE(errField)
		f.UpdateGhostE()
	}
	if passes > 0 {
		_, err = f.DivEError(rho, scratch)
	}
	return err
}

// FillCellGhost fills the locally owned ghost planes of a cell-centered
// scalar: copies for periodic axes, zero-gradient (Neumann) otherwise so
// the cleaning stencil is well defined at walls. Remote faces are the
// exchange layer's job.
func (f *Fields) FillCellGhost(a []float32) {
	arrs := [][]float32{a}
	for axis := 0; axis < 3; axis++ {
		n := axisN(f.G, axis)
		if f.bc[2*axis] == Periodic {
			f.copyPlane(arrs, axis, 0, n)
			f.copyPlane(arrs, axis, n+1, 1)
			continue
		}
		if f.bc[2*axis] != Remote {
			f.copyPlane(arrs, axis, 0, 1)
		}
		if f.bc[2*axis+1] != Remote {
			f.copyPlane(arrs, axis, n+1, n)
		}
	}
}

// FillNodeGhost fills the locally owned boundary/ghost planes of a
// node-centered scalar (nodes own indices 1..N; boundary node N+1 ≡
// node 1 when periodic, zero-gradient otherwise): the same plane copies
// as FillCellGhost.
func (f *Fields) FillNodeGhost(a []float32) { f.FillCellGhost(a) }
