package particle

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestParticleIs32Bytes(t *testing.T) {
	// The 32-byte particle is a design invariant of the VPIC layout
	// (two 16-byte halves: position+voxel, momentum+weight).
	if s := unsafe.Sizeof(Particle{}); s != 32 {
		t.Fatalf("Particle is %d bytes, want 32", s)
	}
	// The AoSoA block must pack exactly Lanes such records with no
	// padding, or the traffic model (BlockBytes per streamed block) and
	// the lane index arithmetic would both be off.
	if s := unsafe.Sizeof(Block{}); s != BlockBytes {
		t.Fatalf("Block is %d bytes, want %d", s, BlockBytes)
	}
}

func TestBufferAppendRemove(t *testing.T) {
	b := NewBuffer(4)
	for i := 0; i < 5; i++ {
		b.Append(Particle{Voxel: int32(i), W: 1})
	}
	if b.N() != 5 {
		t.Fatalf("N = %d", b.N())
	}
	b.RemoveSwap(1) // last (voxel 4) swaps into slot 1
	if b.N() != 4 {
		t.Fatalf("N after remove = %d", b.N())
	}
	if b.At(1).Voxel != 4 {
		t.Fatalf("swap-remove put voxel %d in slot 1, want 4", b.At(1).Voxel)
	}
	b.Resize(0)
	if b.N() != 0 || b.NBlocks() != 0 || b.Cap() == 0 {
		t.Fatal("Resize(0) must empty but keep capacity")
	}
}

func TestBufferEmpty(t *testing.T) {
	b := NewBuffer(0)
	if b.N() != 0 || b.NBlocks() != 0 {
		t.Fatalf("empty buffer: N=%d NBlocks=%d", b.N(), b.NBlocks())
	}
	if got := b.All(); len(got) != 0 {
		t.Fatalf("All() of empty buffer has %d entries", len(got))
	}
	if ke := b.KineticEnergy(1); ke != 0 {
		t.Fatalf("KE of empty buffer = %g", ke)
	}
}

// TestBufferBlockGeometry drives Append across several block boundaries
// and checks the lane bookkeeping at every non-multiple-of-Lanes count.
func TestBufferBlockGeometry(t *testing.T) {
	b := NewBuffer(1) // deliberately undersized: Append must grow blocks
	const total = 3*Lanes + 5
	for i := 0; i < total; i++ {
		b.Append(Particle{Voxel: int32(i), W: float32(i)})
		n := i + 1
		if b.N() != n {
			t.Fatalf("N = %d after %d appends", b.N(), n)
		}
		wantBlocks := (n + LaneMask) >> LaneShift
		if b.NBlocks() != wantBlocks {
			t.Fatalf("n=%d: NBlocks = %d, want %d", n, b.NBlocks(), wantBlocks)
		}
		// Every particle so far must be intact (growth may move blocks).
		for j := 0; j <= i; j++ {
			if p := b.At(j); p.Voxel != int32(j) || p.W != float32(j) {
				t.Fatalf("n=%d: particle %d corrupted: %+v", n, j, p)
			}
		}
		// Lane counts: full blocks Lanes, the tail block the remainder.
		for bi := 0; bi < b.NBlocks(); bi++ {
			want := Lanes
			if bi == b.NBlocks()-1 && n%Lanes != 0 {
				want = n % Lanes
			}
			if lc := b.LaneCount(bi); lc != want {
				t.Fatalf("n=%d: LaneCount(%d) = %d, want %d", n, bi, lc, want)
			}
		}
	}
	// RemoveSwap back down across the same boundaries.
	for n := total; n > 0; n-- {
		b.RemoveSwap(0)
		if b.N() != n-1 || b.NBlocks() != (n-1+LaneMask)>>LaneShift {
			t.Fatalf("after remove to %d: N=%d NBlocks=%d", n-1, b.N(), b.NBlocks())
		}
	}
}

func TestBufferSetAtRoundTrip(t *testing.T) {
	b := NewBuffer(2 * Lanes)
	for i := 0; i < 2*Lanes-3; i++ {
		b.Append(Particle{})
	}
	p := Particle{Dx: 0.25, Dy: -0.5, Dz: 1, Voxel: 42, Ux: -3, Uy: 2, Uz: 0.125, W: 7}
	for _, i := range []int{0, Lanes - 1, Lanes, 2*Lanes - 4} {
		q := p
		q.Voxel = int32(i)
		b.Set(i, q)
		if got := b.At(i); got != q {
			t.Fatalf("slot %d: At = %+v, want %+v", i, got, q)
		}
		if b.Voxel(i) != int32(i) {
			t.Fatalf("Voxel(%d) = %d", i, b.Voxel(i))
		}
	}
}

// TestBufferResize: growing keeps the particles below the old count and
// sizes the storage exactly; shrinking keeps the capacity.
func TestBufferResize(t *testing.T) {
	b := NewBuffer(0)
	for i := 0; i < Lanes+3; i++ {
		b.Append(Particle{Voxel: int32(i)})
	}
	b.Resize(5*Lanes + 1)
	if b.N() != 5*Lanes+1 || b.NBlocks() != 6 || b.Cap() != 6*Lanes {
		t.Fatalf("after growing: N %d, blocks %d, cap %d; want %d, 6, %d", b.N(), b.NBlocks(), b.Cap(), 5*Lanes+1, 6*Lanes)
	}
	for i := 0; i < Lanes+3; i++ {
		if b.Voxel(i) != int32(i) {
			t.Fatalf("slot %d lost its particle: voxel %d", i, b.Voxel(i))
		}
	}
	b.Set(5*Lanes, Particle{Voxel: 99})
	b.Resize(2)
	if b.N() != 2 || b.NBlocks() != 1 || b.Cap() != 6*Lanes || b.Voxel(1) != 1 {
		t.Fatalf("after shrinking: N %d, blocks %d, cap %d, voxel(1) %d", b.N(), b.NBlocks(), b.Cap(), b.Voxel(1))
	}
}

// TestBufferSwap checks the zero-copy contract: after a Swap the buffer
// serves the new blocks and hands the old storage back intact.
func TestBufferSwap(t *testing.T) {
	b := NewBuffer(Lanes + 1)
	for i := 0; i < Lanes+1; i++ {
		b.Append(Particle{Voxel: int32(i)})
	}
	old := b.Blk
	repl := make([]Block, len(old))
	copy(repl, old)
	repl[0].Voxel[0] = 99
	got := b.Swap(repl)
	if &got[0] != &old[0] {
		t.Fatal("Swap did not return the previous storage")
	}
	if b.N() != Lanes+1 || b.Voxel(0) != 99 || b.Voxel(Lanes) != Lanes {
		t.Fatalf("after swap: N=%d voxel0=%d", b.N(), b.Voxel(0))
	}
}

func TestBufferCopyFromAndAll(t *testing.T) {
	src := NewBuffer(0)
	for i := 0; i < Lanes+3; i++ {
		src.Append(Particle{Voxel: int32(i), Ux: float32(i)})
	}
	var dst Buffer
	dst.CopyFrom(src)
	if dst.N() != src.N() {
		t.Fatalf("CopyFrom: N=%d want %d", dst.N(), src.N())
	}
	// Deep copy: mutating the destination must not touch the source.
	dst.Set(0, Particle{Voxel: -1})
	if src.Voxel(0) != 0 {
		t.Fatal("CopyFrom aliased the source storage")
	}
	all := src.All()
	for i, p := range all {
		if p.Voxel != int32(i) || p.Ux != float32(i) {
			t.Fatalf("All()[%d] = %+v", i, p)
		}
	}
}

func TestKineticEnergyColdParticle(t *testing.T) {
	b := NewBuffer(1)
	b.Append(Particle{W: 3}) // at rest: zero KE
	if ke := b.KineticEnergy(1); ke != 0 {
		t.Fatalf("KE of particle at rest = %g", ke)
	}
}

func TestKineticEnergyRelativistic(t *testing.T) {
	b := NewBuffer(1)
	u := 2.0
	b.Append(Particle{Ux: float32(u), W: 1})
	want := math.Sqrt(1+u*u) - 1
	if ke := b.KineticEnergy(1); math.Abs(ke-want) > 1e-7 {
		t.Fatalf("KE = %g, want %g", ke, want)
	}
	// Mass scales linearly.
	if ke := b.KineticEnergy(1836); math.Abs(ke-1836*want) > 1e-3 {
		t.Fatalf("ion KE = %g, want %g", ke, 1836*want)
	}
}

func TestKineticEnergyNoCancellation(t *testing.T) {
	// γ−1 via u²/(γ+1) must stay accurate for very cold particles where
	// sqrt(1+u²)−1 would lose all precision.
	b := NewBuffer(1)
	u := 1e-4
	b.Append(Particle{Uz: float32(u), W: 1})
	want := u * u / 2
	if ke := b.KineticEnergy(1); math.Abs(ke-want)/want > 1e-5 {
		t.Fatalf("cold KE = %g, want %g", ke, want)
	}
}

func TestKineticEnergyAdditive(t *testing.T) {
	f := func(u1, u2 float64) bool {
		u1 = math.Mod(math.Abs(u1), 3)
		u2 = math.Mod(math.Abs(u2), 3)
		a := NewBuffer(1)
		a.Append(Particle{Ux: float32(u1), W: 1})
		b := NewBuffer(1)
		b.Append(Particle{Ux: float32(u2), W: 1})
		both := NewBuffer(2)
		both.Append(Particle{Ux: float32(u1), W: 1})
		both.Append(Particle{Ux: float32(u2), W: 1})
		return math.Abs(both.KineticEnergy(1)-a.KineticEnergy(1)-b.KineticEnergy(1)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
