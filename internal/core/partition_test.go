package core

import (
	"math/rand"
	"testing"

	"govpic/internal/particle"
)

// oddShell marks the odd voxels of nv as boundary shell.
func oddShell(nv int) []bool {
	shell := make([]bool, nv)
	for v := 1; v < nv; v += 2 {
		shell[v] = true
	}
	return shell
}

// checkPartition partitions a buffer of particles in the given voxels
// (each tagged by its index in W) and asserts the partition's contract:
// interior before the returned cut and shell after it, the same
// particles as before, and only misplaced particles moved — every
// shell particle found before the cut swapped with an interior one
// found after it, so exactly twice that many slots changed.
func checkPartition(t *testing.T, shell []bool, voxels []int32) {
	t.Helper()
	buf := particle.NewBuffer(len(voxels))
	for i, v := range voxels {
		buf.Append(particle.Particle{Voxel: v, Ux: float32(v) / 8, W: float32(i)})
	}
	before := buf.All()
	cut := (&Rank{shell: shell}).partitionBoundary(buf)
	after := buf.All()

	interior := len(voxels)
	if shell != nil {
		interior = 0
		for _, v := range voxels {
			if !shell[v] {
				interior++
			}
		}
	}
	if cut != interior {
		t.Fatalf("cut %d, want the interior count %d", cut, interior)
	}
	misplaced, changed := 0, 0
	seen := make([]bool, len(voxels))
	for i, p := range after {
		if inShell := shell != nil && shell[p.Voxel]; inShell != (i >= cut) {
			t.Fatalf("slot %d (voxel %d) is on the wrong side of cut %d", i, p.Voxel, cut)
		}
		id := int(p.W)
		if id < 0 || id >= len(before) || seen[id] || before[id] != p {
			t.Fatalf("slot %d holds %+v, not a distinct particle of the input", i, p)
		}
		seen[id] = true
		if p != before[i] {
			changed++
		}
		if shell != nil && i < cut && shell[before[i].Voxel] {
			misplaced++
		}
	}
	if changed != 2*misplaced {
		t.Fatalf("%d slots changed, want 2 × %d misplaced", changed, misplaced)
	}
}

func TestPartitionBoundary(t *testing.T) {
	const nv = 16
	repeat := func(n int, v int32) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	alternating := func(n int) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(i % nv)
		}
		return out
	}
	type partitionCase struct {
		name   string
		shell  []bool
		voxels []int32
	}
	cases := []partitionCase{
		{"empty", oddShell(nv), nil},
		{"nil shell", nil, alternating(37)},
		{"all shell", oddShell(nv), repeat(29, 3)},
		{"all interior", oddShell(nv), repeat(29, 4)},
		{"already partitioned", oddShell(nv), append(repeat(21, 2), repeat(11, 5)...)},
		{"shell only at the front", oddShell(nv), append(repeat(5, 7), repeat(19, 6)...)},
		{"one of each, swapped", oddShell(nv), []int32{1, 0}},
		{"partial last block", oddShell(nv), alternating(3*particle.Lanes + 5)},
		{"shell tail in a partial block", oddShell(nv), append(alternating(particle.Lanes+3), repeat(4, 2)...)},
	}
	rng := rand.New(rand.NewSource(44))
	for r := 0; r < 8; r++ {
		voxels := make([]int32, rng.Intn(300))
		for i := range voxels {
			voxels[i] = int32(rng.Intn(nv))
		}
		cases = append(cases, partitionCase{"random", oddShell(nv), voxels})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkPartition(t, c.shell, c.voxels) })
	}
}

// FuzzPartitionBoundary checks the partition's contract on n particles
// whose classes follow the bits of pattern (cycled), each in one of 16
// voxels.
func FuzzPartitionBoundary(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(29), []byte{0xff})
	f.Add(uint16(29), []byte{0x00})
	f.Add(uint16(64), []byte{0x0f, 0xf0})
	f.Add(uint16(13), []byte{0xaa, 0x55, 0x01})
	f.Fuzz(func(t *testing.T, n uint16, pattern []byte) {
		if len(pattern) == 0 {
			pattern = []byte{0}
		}
		voxels := make([]int32, int(n)%2048)
		for i := range voxels {
			bit := int32(pattern[(i/8)%len(pattern)]>>(i%8)) & 1
			voxels[i] = 2*int32(i%8) + bit
		}
		checkPartition(t, oddShell(16), voxels)
	})
}
