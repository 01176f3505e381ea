package field

import "govpic/internal/pipe"

// AdvanceBPar advances cB by frac·dt using the curl of E:
// ∂B/∂t = −∇×E. VPIC calls this twice per step with frac = 0.5 so that
// B is known at both half-integer and integer times. Boundary-owned E
// values (index N+1) must be current (call UpdateGhostE after the last
// E change). The interior z-plane sweep is split over the worker pool
// p (nil runs it inline): B faces are written per cell from E values
// that do not change during the sweep, so the z partition is race-free
// and bit-identical to the serial sweep for any worker count.
func (f *Fields) AdvanceBPar(p *pipe.Pool, dt, frac float64) {
	g := f.G
	h := dt * frac
	t := f.curlTask()
	t.py = float32(h / g.DY)
	t.pz = float32(h / g.DZ)
	t.px = float32(h / g.DX)
	p.Range(g.NZ, t.advB)
	f.UpdateGhostB()
}

// AdvanceEPar advances E by a full dt using the curl of B and the free
// current J: ∂E/∂t = ∇×B − J. Mur faces are advanced with their
// characteristic update; conductor faces keep tangential E = 0. The
// interior z-plane sweep is split over p (nil runs it inline; see
// AdvanceBPar for why this is exact).
func (f *Fields) AdvanceEPar(p *pipe.Pool, dt float64) {
	if f.mur != nil {
		f.mur.snapshot(f)
	}
	g := f.G
	t := f.curlTask()
	t.px = float32(dt / g.DX)
	t.py = float32(dt / g.DY)
	t.pz = float32(dt / g.DZ)
	t.cj = float32(dt)
	p.Range(g.NZ, t.advE)
	f.UpdateGhostE()
	if f.mur != nil {
		f.mur.apply(f, dt)
	}
}

// curl holds the curl advances' per-call coefficients and their z-range
// sweeps, bound once so a pooled advance allocates nothing.
type curl struct {
	f              *Fields
	px, py, pz, cj float32
	advB, advE     func(lo, hi int)
}

// curlTask returns f's advance task, binding it on first use.
func (f *Fields) curlTask() *curl {
	t := &f.curl
	if t.f == nil {
		t.f = f
		t.advB, t.advE = t.sweepB, t.sweepE
	}
	return t
}

// sweepBGo advances B on z planes (lo, hi]. It is the spec of sweepB's
// row routine, the purego / non-amd64 sweep and the parity tests' oracle.
func (t *curl) sweepBGo(lo, hi int) {
	f, g := t.f, t.f.G
	sx, sy, _ := g.Strides()
	sxy := sx * sy
	px, py, pz := t.px, t.py, t.pz
	ex, ey, ez := f.Ex, f.Ey, f.Ez
	bx, by, bz := f.Bx, f.By, f.Bz
	for iz := lo + 1; iz <= hi; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			v := g.Voxel(1, iy, iz)
			for ix := 1; ix <= g.NX; ix++ {
				bx[v] -= py*(ez[v+sx]-ez[v]) - pz*(ey[v+sxy]-ey[v])
				by[v] -= pz*(ex[v+sxy]-ex[v]) - px*(ez[v+1]-ez[v])
				bz[v] -= px*(ey[v+1]-ey[v]) - py*(ex[v+sx]-ex[v])
				v++
			}
		}
	}
}

// sweepEGo advances E on z planes (lo, hi]; it is sweepE's spec, as
// sweepBGo is sweepB's.
func (t *curl) sweepEGo(lo, hi int) {
	f, g := t.f, t.f.G
	sx, sy, _ := g.Strides()
	sxy := sx * sy
	px, py, pz, cj := t.px, t.py, t.pz, t.cj
	ex, ey, ez := f.Ex, f.Ey, f.Ez
	bx, by, bz := f.Bx, f.By, f.Bz
	jx, jy, jz := f.Jx, f.Jy, f.Jz
	for iz := lo + 1; iz <= hi; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			v := g.Voxel(1, iy, iz)
			for ix := 1; ix <= g.NX; ix++ {
				ex[v] += py*(bz[v]-bz[v-sx]) - pz*(by[v]-by[v-sxy]) - cj*jx[v]
				ey[v] += pz*(bx[v]-bx[v-sxy]) - px*(bz[v]-bz[v-1]) - cj*jy[v]
				ez[v] += px*(by[v]-by[v-1]) - py*(bx[v]-bx[v-sx]) - cj*jz[v]
				v++
			}
		}
	}
}

// applyEBoundary enforces the non-periodic boundary condition for
// tangential E on one face. Mur faces are handled separately by
// murState.apply (which needs previous-step values) and remote faces by
// the domain exchange; here both fall through to nothing.
func (f *Fields) applyEBoundary(face Face, axis int) {
	if f.bc[face] != Conductor {
		return
	}
	idx := 1
	if face.High() {
		idx = axisN(f.G, axis) + 1
	}
	t1, t2 := tangential(f, axis)
	f.zeroPlane([][]float32{t1, t2}, axis, idx)
}

// tangential returns the two E components tangential to the given axis.
func tangential(f *Fields, axis int) (a, b []float32) {
	switch axis {
	case 0:
		return f.Ey, f.Ez
	case 1:
		return f.Ez, f.Ex
	default:
		return f.Ex, f.Ey
	}
}
