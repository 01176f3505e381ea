package sort

import (
	"math"
	"testing"
	"testing/quick"

	"govpic/internal/particle"
	"govpic/internal/pipe"
	"govpic/internal/rng"
)

func randomBuffer(n, nv int, seed uint64) *particle.Buffer {
	src := rng.New(seed, 0)
	u := func() float32 { return float32(src.Uniform(-1, 1)) }
	b := particle.NewBuffer(n)
	for i := 0; i < n; i++ {
		b.Append(particle.Particle{
			Dx: u(), Dy: u(), Dz: u(),
			Voxel: int32(src.Intn(nv)),
			Ux:    u(), Uy: u(), Uz: u(),
			W: float32(i), // tag to check stability/permutation
		})
	}
	return b
}

// sortSerial is the classic single-threaded counting sort into out: the
// oracle ByVoxel's blocked routine must equal byte for byte.
func sortSerial(buf *particle.Buffer, out []particle.Block, nv int) {
	counts := make([]int32, nv+1)
	n := buf.N()
	for bi := range buf.Blk {
		blk := &buf.Blk[bi]
		for l := 0; l < buf.LaneCount(bi); l++ {
			counts[blk.Voxel[l]]++
		}
	}
	var sum int32
	for v := 0; v < nv; v++ {
		c := counts[v]
		counts[v] = sum
		sum += c
	}
	for i := 0; i < n; i++ {
		v := buf.Voxel(i)
		place(buf, out, i, counts[v])
		counts[v]++
	}
}

// oracleSort sorts buf in place with sortSerial.
func oracleSort(buf *particle.Buffer, nv int) {
	out := make([]particle.Block, buf.NBlocks(), cap(buf.Blk))
	sortSerial(buf, out, nv)
	buf.Swap(out)
}

// firstDiff returns the first slot whose bytes differ between want and
// got, or -1 when every slot (and the count) agrees.
func firstDiff(want, got *particle.Buffer) int {
	bits := func(p particle.Particle) [8]uint32 {
		f := math.Float32bits
		return [8]uint32{f(p.Dx), f(p.Dy), f(p.Dz), uint32(p.Voxel), f(p.Ux), f(p.Uy), f(p.Uz), f(p.W)}
	}
	if want.N() != got.N() {
		return 0
	}
	for i := 0; i < want.N(); i++ {
		if bits(want.At(i)) != bits(got.At(i)) {
			return i
		}
	}
	return -1
}

// sortWith sorts buf on a fresh workspace with a pool of workers, or a
// nil pool when workers is 0.
func sortWith(buf *particle.Buffer, nv, workers int) {
	w := NewWorkspace(nv)
	if workers > 0 {
		w.SetPool(pipe.New(workers))
	}
	w.ByVoxel(buf, nv)
}

func TestSortsByVoxel(t *testing.T) {
	b := randomBuffer(10000, 257, 1)
	w := NewWorkspace(257)
	w.ByVoxel(b, 257)
	if !IsSorted(b) {
		t.Fatal("not sorted")
	}
}

func TestSortIsPermutation(t *testing.T) {
	b := randomBuffer(5000, 64, 2)
	wantW := map[float32]int32{}
	for _, p := range b.All() {
		wantW[p.W] = p.Voxel
	}
	w := NewWorkspace(64)
	w.ByVoxel(b, 64)
	if b.N() != 5000 {
		t.Fatalf("lost particles: %d", b.N())
	}
	for _, p := range b.All() {
		if v, ok := wantW[p.W]; !ok || v != p.Voxel {
			t.Fatalf("particle tagged %g corrupted", p.W)
		}
	}
}

func TestSortStable(t *testing.T) {
	b := particle.NewBuffer(6)
	// Two cells, interleaved, tags record original order.
	for i := 0; i < 6; i++ {
		b.Append(particle.Particle{Voxel: int32(i % 2), W: float32(i)})
	}
	w := NewWorkspace(2)
	w.ByVoxel(b, 2)
	want := []float32{0, 2, 4, 1, 3, 5}
	for i, p := range b.All() {
		if p.W != want[i] {
			t.Fatalf("slot %d has tag %g, want %g (stability broken)", i, p.W, want[i])
		}
	}
}

func TestSortEmptyAndSingle(t *testing.T) {
	w := NewWorkspace(8)
	b := particle.NewBuffer(0)
	w.ByVoxel(b, 8) // must not panic
	b.Append(particle.Particle{Voxel: 3})
	w.ByVoxel(b, 8)
	if b.N() != 1 || b.Voxel(0) != 3 {
		t.Fatal("single-particle sort corrupted buffer")
	}
}

func TestWorkspaceGrows(t *testing.T) {
	w := NewWorkspace(4)
	b := randomBuffer(100, 1000, 3)
	w.ByVoxel(b, 1000) // nv larger than initial workspace
	if !IsSorted(b) {
		t.Fatal("not sorted after workspace growth")
	}
}

func TestIsSorted(t *testing.T) {
	b := particle.NewBuffer(3)
	for _, v := range []int32{1, 1, 2} {
		b.Append(particle.Particle{Voxel: v})
	}
	if !IsSorted(b) {
		t.Fatal("sorted buffer reported unsorted")
	}
	p := b.At(2)
	p.Voxel = 0
	b.Set(2, p)
	if IsSorted(b) {
		t.Fatal("unsorted buffer reported sorted")
	}
}

func TestSortIdempotent(t *testing.T) {
	f := func(seed uint64) bool {
		b := randomBuffer(500, 32, seed)
		w := NewWorkspace(32)
		w.ByVoxel(b, 32)
		first := b.All()
		w.ByVoxel(b, 32)
		for i := range first {
			if first[i] != b.At(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSortAllOneVoxel(t *testing.T) {
	// Degenerate histogram: every particle in one cell. The sort must be
	// the identity permutation (stability) via the zero-copy swap.
	b := particle.NewBuffer(100)
	for i := 0; i < 100; i++ {
		b.Append(particle.Particle{Voxel: 7, W: float32(i)})
	}
	w := NewWorkspace(16)
	w.ByVoxel(b, 16)
	for i, p := range b.All() {
		if p.W != float32(i) {
			t.Fatalf("slot %d has tag %g, want %d", i, p.W, i)
		}
	}
}

// TestSortSwapIdentity pins the zero-copy contract after a sort: the
// buffer's block storage must be the workspace's previous scratch (the
// slices really ping-pong; nothing was copied back), and sorting an
// already sorted buffer must reproduce it bit for bit in the other
// slice.
func TestSortSwapIdentity(t *testing.T) {
	b := randomBuffer(1000, 64, 77)
	w := NewWorkspace(64)
	w.ByVoxel(b, 64)
	firstStorage := &b.Blk[0]
	first := b.All()
	w.ByVoxel(b, 64) // already sorted: stable sort = identity permutation
	if &b.Blk[0] == firstStorage {
		t.Fatal("second sort did not swap storage (copy-back crept in)")
	}
	for i := range first {
		if b.At(i) != first[i] {
			t.Fatalf("identity re-sort changed slot %d", i)
		}
	}
	// And the workspace now owns the first storage.
	if &w.scratch[0] != firstStorage {
		t.Fatal("workspace did not reclaim the buffer's previous storage")
	}
}

func TestSortNVGrowthBetweenCalls(t *testing.T) {
	// The counts slice must regrow when the same workspace later sees a
	// bigger grid — and the zero-copy swap must stay coherent across the
	// growth.
	w := NewWorkspace(8)
	small := randomBuffer(200, 8, 21)
	w.ByVoxel(small, 8)
	if !IsSorted(small) {
		t.Fatal("small-nv sort failed")
	}
	big := randomBuffer(300, 2048, 22)
	w.ByVoxel(big, 2048)
	if !IsSorted(big) {
		t.Fatal("sort after nv growth failed")
	}
	if !IsSorted(small) {
		t.Fatal("earlier buffer corrupted by later sort (scratch aliasing)")
	}
}

func TestSortWorkspaceSharedAcrossBuffers(t *testing.T) {
	// One workspace serving several species: sorting B must not disturb
	// A's storage even though A's old slice became the scratch.
	w := NewWorkspace(64)
	a := randomBuffer(1000, 64, 31)
	bb := randomBuffer(1000, 64, 32)
	w.ByVoxel(a, 64)
	snapshot := a.All()
	w.ByVoxel(bb, 64)
	if !IsSorted(bb) {
		t.Fatal("second buffer not sorted")
	}
	for i := range snapshot {
		if a.At(i) != snapshot[i] {
			t.Fatalf("buffer A slot %d mutated by sorting buffer B", i)
		}
	}
}

// matchOracle sorts a seeded random buffer with ByVoxel on a nil pool
// (workers 0) or a pool of each worker count, and fails at the first
// slot whose bytes differ from the serial oracle's.
func matchOracle(t *testing.T, n, nv int, seed uint64, workers ...int) {
	t.Helper()
	want := randomBuffer(n, nv, seed)
	oracleSort(want, nv)
	for _, w := range workers {
		got := randomBuffer(n, nv, seed)
		sortWith(got, nv, w)
		if i := firstDiff(want, got); i >= 0 {
			t.Fatalf("n=%d nv=%d W=%d (0: nil pool): slot %d is %+v, the oracle's %+v",
				n, nv, w, i, got.At(i), want.At(i))
		}
	}
}

// TestSortMatchesOracle: ByVoxel runs one routine for every pool, and
// it must equal the serial oracle byte for byte across lane tails (n
// around 8 and 4096), voxel ranges narrower than the merge chunks
// (nv < NumBlocks, where most chunks are empty), a nil pool, and
// worker counts that do and do not divide the pipeline count.
func TestSortMatchesOracle(t *testing.T) {
	for _, n := range []int{2, 7, 8, 9, 4095, 4096, 4873, 12288} {
		for _, nv := range []int{1, 3, 7, 127, 509} {
			matchOracle(t, n, nv, uint64(n*1000+nv), 0, 1, 2, 3, 8)
		}
	}
}

func TestBlockedSortMatchesSerial(t *testing.T) {
	matchOracle(t, 12288, 509, 11, 2, 4, 8)
}

func TestBlockedSortStabilityAroundThreshold(t *testing.T) {
	// Sizes on either side of a 4096-particle boundary, on a one-worker
	// pool and on pools that do and do not divide the block count.
	for _, n := range []int{4095, 4096, 4873} {
		matchOracle(t, n, 127, uint64(n), 1, 3, 8)
	}
}

func TestBlockedSortTinyVoxelRange(t *testing.T) {
	// nv smaller than the number of merge chunks: most chunks cover an
	// empty voxel range and must contribute nothing to the prefix.
	for _, nv := range []int{1, 3, 7} {
		matchOracle(t, 8192, nv, uint64(nv), 2, 8)
	}
}

// FuzzSortParity checks ByVoxel against the serial oracle at random
// sizes (every lane tail), random voxel ranges and duplicate-heavy
// voxels (distinct > 0 draws every voxel from that many values), on
// pools of 1, 2 and 8 workers.
func FuzzSortParity(f *testing.F) {
	for tail := 1; tail < particle.Lanes; tail++ {
		f.Add(uint16(particle.Lanes+tail), uint16(7), uint8(0), uint64(tail))
	}
	f.Add(uint16(4096+3), uint16(509), uint8(0), uint64(11))
	f.Add(uint16(9288), uint16(9288), uint8(3), uint64(12))
	f.Add(uint16(2), uint16(1), uint8(1), uint64(13))
	f.Fuzz(func(t *testing.T, nRaw, nvRaw uint16, distinct uint8, seed uint64) {
		n := 2 + int(nRaw)%16384
		nv := 1 + int(nvRaw)%10000
		src := rng.New(seed, 0)
		voxels := make([]int32, 1+int(distinct)%8)
		for i := range voxels {
			voxels[i] = int32(src.Intn(nv))
		}
		fill := func() *particle.Buffer {
			r := rng.New(seed, 1)
			b := particle.NewBuffer(n)
			for i := 0; i < n; i++ {
				v := int32(r.Intn(nv))
				if distinct > 0 {
					v = voxels[r.Intn(len(voxels))]
				}
				b.Append(particle.Particle{Dx: float32(r.Float64()), Voxel: v, W: float32(i)})
			}
			return b
		}
		want := fill()
		oracleSort(want, nv)
		for _, workers := range []int{1, 2, 8} {
			got := fill()
			sortWith(got, nv, workers)
			if i := firstDiff(want, got); i >= 0 {
				t.Fatalf("n=%d nv=%d distinct=%d W=%d: slot %d is %+v, the oracle's %+v",
					n, nv, distinct, workers, i, got.At(i), want.At(i))
			}
		}
	})
}

func TestPasses(t *testing.T) {
	check := func(label string, w *Workspace, sorts int64) {
		t.Helper()
		p := w.Passes()
		if p.Sorts != sorts {
			t.Fatalf("%s: %d sorts recorded, want %d", label, p.Sorts, sorts)
		}
		if p.CountSeconds < 0 || p.MergeSeconds < 0 || p.ScatterSeconds < 0 {
			t.Fatalf("%s: negative pass time %+v", label, p)
		}
		if again := w.Passes(); again != p {
			t.Fatalf("%s: a second read changed the passes: %+v then %+v", label, p, again)
		}
	}
	ws := NewWorkspace(64)
	ws.ByVoxel(randomBuffer(1000, 64, 5), 64)
	ws.ByVoxel(randomBuffer(1000, 64, 6), 64)
	check("nil pool", ws, 2)
	// Cumulative: a later sort adds to what earlier reads saw.
	ws.ByVoxel(randomBuffer(1000, 64, 8), 64)
	check("nil pool, after a third sort", ws, 3)

	wb := NewWorkspace(64)
	wb.SetPool(pipe.New(4))
	wb.ByVoxel(randomBuffer(8192, 64, 7), 64)
	check("four workers", wb, 1)

	var agg Passes
	agg.Merge(Passes{CountSeconds: 1, Sorts: 2})
	agg.Merge(Passes{MergeSeconds: 2, ScatterSeconds: 3, Sorts: 1})
	if agg.CountSeconds != 1 || agg.MergeSeconds != 2 || agg.ScatterSeconds != 3 || agg.Sorts != 3 {
		t.Fatalf("Merge wrong: %+v", agg)
	}
}

func TestSortPreservesAppendHeadroom(t *testing.T) {
	// The scratch is allocated with the buffer's capacity, so a sorted
	// buffer keeps room for migrated-in particles without reallocating.
	b := particle.NewBuffer(512)
	src := rng.New(41, 0)
	for i := 0; i < 100; i++ {
		b.Append(particle.Particle{Voxel: int32(src.Intn(16))})
	}
	w := NewWorkspace(16)
	w.ByVoxel(b, 16)
	if b.Cap() < 512 {
		t.Fatalf("sort shrank buffer capacity to %d", b.Cap())
	}
}

func BenchmarkSort100k(b *testing.B) {
	buf := randomBuffer(100000, 4096, 9)
	w := NewWorkspace(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ByVoxel(buf, 4096)
	}
}
