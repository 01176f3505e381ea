package push

import (
	"testing"

	"govpic/internal/accum"
	"govpic/internal/particle"
)

// sweepShapes is the parity axis every bit-identity test runs over: the
// block routine, by kernel name — asm where the build and CPU have it,
// at the widest width, and shapeAsm8, the 8-lane routine, where that is
// narrower. A test selects one on its kernel with useShape.
func sweepShapes() []string {
	shapes := []string{KernelGo}
	if AsmAvailable() {
		shapes = append(shapes, KernelAsm)
	}
	if AsmLanes() > particle.Lanes {
		shapes = append(shapes, shapeAsm8)
	}
	return shapes
}

// skipNarrower skips t when the assembly routine of the given width
// cannot run on this build and CPU, naming what is missing.
func skipNarrower(t *testing.T, lanes int) {
	t.Helper()
	switch {
	case !AsmAvailable():
		t.Skip("assembly kernel unavailable on this build/CPU (AVX2)")
	case AsmLanes() < lanes:
		t.Skipf("no %d-lane routine on this CPU: it lacks %s", lanes, avx512Missing)
	}
}

// shapeAsm8 is the AVX2 block routine on a host whose "asm" is wider.
const shapeAsm8 = "asm8"

// useShape sets k to push with the block routine of shape sh.
func useShape(k *Kernel, sh string) {
	k.Asm = sh != KernelGo
	if sh == shapeAsm8 {
		k.asmLanes = particle.Lanes
	}
}

// minSpans is the population axis of the sweep-pair tests, labelled
// spanMin=m: groupSpans regroups the buffer so every same-voxel span is
// at least m particles long before the first push. 1 keeps the buffer
// as loaded; 4 splits each shuffled block into two voxels at lane 4;
// Lanes+1 makes every span outlast a block, so each block continues
// the previous block's run and its voxel split walks every lane offset.
var minSpans = []int{1, 4, particle.Lanes + 1}

// groupSpans gives particle i the voxel of particle i − i mod m. Offsets
// are cell-relative, so any voxel the population already holds is valid.
func groupSpans(b *particle.Buffer, m int) {
	for i := 0; i < b.N(); i++ {
		p := b.At(i)
		p.Voxel = b.At(i - i%m).Voxel
		b.Set(i, p)
	}
}

// AdvancePUnfused is the bit-identity oracle of the sweep: every
// particle individually loads its voxel's interpolator and
// read-modify-writes its accumulator cell — no blocks, runs or block
// routines. The arithmetic is that of advanceBlockGo lane by lane, term
// by term, so for any buffer — sorted or not — AdvanceP must agree with
// it bitwise on particles, movers, accumulators and counters, whatever
// Kernel.Asm is. It is also the "oracle" row of BenchmarkPushSortedRuns:
// what run fusion and the block routines buy.
func (k *Kernel) AdvancePUnfused(buf *particle.Buffer) {
	bs := &k.serial
	bs.Reset()
	k.advanceRangeUnfused(buf, 0, buf.N(), k.Acc, bs)
	k.finishOracle(buf, []*BlockState{bs}, []*accum.Array{k.Acc})
}

// finishOracle is the mover oracle, FinishBlocks without batches: every
// block's movers, last block first and each last to first, through
// scalar moveP, then the counters merged into the kernel totals.
func (k *Kernel) finishOracle(buf *particle.Buffer, blocks []*BlockState, accs []*accum.Array) {
	for b := len(blocks) - 1; b >= 0; b-- {
		bs := blocks[b]
		bs.NMoved += int64(len(bs.Movers))
		for m := len(bs.Movers) - 1; m >= 0; m-- {
			mv := bs.Movers[m]
			k.moveP(buf, int(mv.Idx), mv.DispX, mv.DispY, mv.DispZ, accs[b], bs)
		}
	}
	for _, bs := range blocks {
		k.MergeStats(bs)
	}
}

// advanceRangeUnfused is the oracle's range sweep. It counts one "run"
// per particle, matching its actual data motion under the package
// traffic model.
func (k *Kernel) advanceRangeUnfused(buf *particle.Buffer, lo, hi int, a *accum.Array, bs *BlockState) {
	blk := buf.Blk
	ip := k.IP.C
	qdt2mc := k.qdt2mc
	cdx, cdy, cdz := k.cdtdx2, k.cdtdy2, k.cdtdz2
	bs.NPushed += int64(hi - lo)
	bs.NRuns += int64(hi - lo)

	for i := lo; i < hi; i++ {
		b := &blk[i>>particle.LaneShift]
		l := i & particle.LaneMask
		dx, dy, dz := b.Dx[l], b.Dy[l], b.Dz[l]
		cc := &ip[b.Voxel[l]]

		hax := qdt2mc * (cc.Ex0 + dy*cc.DExDy + dz*(cc.DExDz+dy*cc.D2ExDyDz))
		hay := qdt2mc * (cc.Ey0 + dz*cc.DEyDz + dx*(cc.DEyDx+dz*cc.D2EyDzDx))
		haz := qdt2mc * (cc.Ez0 + dx*cc.DEzDx + dy*(cc.DEzDy+dx*cc.D2EzDxDy))
		ux := b.Ux[l] + hax
		uy := b.Uy[l] + hay
		uz := b.Uz[l] + haz

		cbx := cc.CBx0 + dx*cc.DCBxDx
		cby := cc.CBy0 + dy*cc.DCByDy
		cbz := cc.CBz0 + dz*cc.DCBzDz

		gi := rsqrt(1 + (ux*ux + uy*uy + uz*uz))
		f0 := qdt2mc * gi
		tx, ty, tz := f0*cbx, f0*cby, f0*cbz
		t2 := tx*tx + ty*ty + tz*tz
		s := 2 / (1 + t2)
		wx := ux + (uy*tz - uz*ty)
		wy := uy + (uz*tx - ux*tz)
		wz := uz + (ux*ty - uy*tx)
		ux += s * (wy*tz - wz*ty)
		uy += s * (wz*tx - wx*tz)
		uz += s * (wx*ty - wy*tx)

		ux += hax
		uy += hay
		uz += haz
		b.Ux[l], b.Uy[l], b.Uz[l] = ux, uy, uz
		gi = rsqrt(1 + (ux*ux + uy*uy + uz*uz))

		ddx := ux * gi * cdx
		ddy := uy * gi * cdy
		ddz := uz * gi * cdz
		nx := dx + ddx
		ny := dy + ddy
		nz := dz + ddz

		if nx <= 1 && nx >= -1 && ny <= 1 && ny >= -1 && nz <= 1 && nz >= -1 {
			k.scatter(a, int(b.Voxel[l]), b.W[l], dx, dy, dz, ddx, ddy, ddz)
			b.Dx[l], b.Dy[l], b.Dz[l] = nx, ny, nz
			continue
		}
		bs.Movers = append(bs.Movers, particle.Mover{DispX: ddx, DispY: ddy, DispZ: ddz, Idx: int32(i)})
	}
}
