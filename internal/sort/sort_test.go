package sort

import (
	"testing"
	"testing/quick"

	"govpic/internal/particle"
	"govpic/internal/pipe"
	"govpic/internal/rng"
)

func randomBuffer(n, nv int, seed uint64) *particle.Buffer {
	src := rng.New(seed, 0)
	b := particle.NewBuffer(n)
	for i := 0; i < n; i++ {
		b.Append(particle.Particle{
			Voxel: int32(src.Intn(nv)),
			W:     float32(i), // tag to check stability/permutation
		})
	}
	return b
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

func TestBlockedSortMatchesSerial(t *testing.T) {
	// Large enough to clear the parallelMin threshold.
	const n, nv = 3 * parallelMin, 509
	for _, workers := range []int{2, 4, 8} {
		serial := randomBuffer(n, nv, 11)
		blocked := randomBuffer(n, nv, 11)
		ws := NewWorkspace(nv)
		ws.ByVoxel(serial, nv)
		wb := NewWorkspace(nv)
		wb.SetPool(pipe.New(workers))
		wb.ByVoxel(blocked, nv)
		if !IsSorted(blocked) {
			t.Fatalf("W=%d: blocked sort output unsorted", workers)
		}
		for i := 0; i < n; i++ {
			if serial.At(i) != blocked.At(i) {
				t.Fatalf("W=%d: slot %d differs: serial %+v blocked %+v",
					workers, i, serial.At(i), blocked.At(i))
			}
		}
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

func TestBlockedSortStabilityAroundThreshold(t *testing.T) {
	// Sizes straddling parallelMin: below it the pooled workspace takes
	// the serial path, at/above it the blocked path. All must equal the
	// nil-pool serial permutation bitwise.
	for _, n := range []int{parallelMin - 1, parallelMin, parallelMin + 777} {
		for _, workers := range []int{1, 3, 8} {
			const nv = 127
			serial := randomBuffer(n, nv, uint64(n))
			blocked := randomBuffer(n, nv, uint64(n))
			NewWorkspace(nv).ByVoxel(serial, nv)
			wb := NewWorkspace(nv)
			wb.SetPool(pipe.New(workers))
			wb.ByVoxel(blocked, nv)
			for i := 0; i < n; i++ {
				if serial.At(i) != blocked.At(i) {
					t.Fatalf("n=%d W=%d: slot %d differs", n, workers, i)
				}
			}
		}
	}
}

func TestBlockedSortTinyVoxelRange(t *testing.T) {
	// nv smaller than the number of merge chunks: most chunks cover an
	// empty voxel range and must contribute nothing to the prefix.
	const n = 2 * parallelMin
	for _, nv := range []int{1, 3, 7} {
		for _, workers := range []int{2, 8} {
			serial := randomBuffer(n, nv, uint64(nv))
			blocked := randomBuffer(n, nv, uint64(nv))
			NewWorkspace(nv).ByVoxel(serial, nv)
			wb := NewWorkspace(nv)
			wb.SetPool(pipe.New(workers))
			wb.ByVoxel(blocked, nv)
			for i := 0; i < n; i++ {
				if serial.At(i) != blocked.At(i) {
					t.Fatalf("nv=%d W=%d: slot %d differs", nv, workers, i)
				}
			}
		}
	}
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
	check("serial", ws, 2)
	// Cumulative: a later sort adds to what earlier reads saw.
	ws.ByVoxel(randomBuffer(1000, 64, 8), 64)
	check("serial, after a third sort", ws, 3)

	wb := NewWorkspace(64)
	wb.SetPool(pipe.New(4))
	wb.ByVoxel(randomBuffer(2*parallelMin, 64, 7), 64)
	check("blocked", wb, 1)

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
