package sortalgo

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/kv"
	"repro/internal/numa"
	"repro/internal/part"
	"repro/internal/ws"
)

// TestLSBWorkspaceMatchesPlain exercises the workspace-backed drivers —
// single-thread (RadixBits 8, threads 1), per-pass parallel (RadixBits 8,
// threads 4), and fused parallel (RadixBits 4, threads 4: the joint tables
// are cache-resident so the budget gate engages) — against the
// workspace-less result: sorted, stable, same multiset.
func TestLSBWorkspaceMatchesPlain(t *testing.T) {
	w := ws.New()
	defer w.Close()
	cases := []struct {
		threads, radixBits int
	}{{1, 8}, {4, 8}, {4, 4}}
	for _, c := range cases {
		for name, orig := range sortWorkloads32(1 << 14) {
			t.Run(name, func(t *testing.T) {
				keys := append([]uint32(nil), orig...)
				vals := gen.RIDs[uint32](len(keys))
				origV := append([]uint32(nil), vals...)
				tmpK := make([]uint32, len(keys))
				tmpV := make([]uint32, len(keys))
				LSB(keys, vals, tmpK, tmpV, Options{Threads: c.threads, RadixBits: c.radixBits, Workspace: w})
				checkSorted(t, orig, origV, keys, vals, true)
			})
		}
	}
}

// TestLSBFusedZeroAlloc pins the fused parallel driver itself (4-bit
// passes engage the gate) as allocation-free on a warm workspace.
func TestLSBFusedZeroAlloc(t *testing.T) {
	w := ws.New()
	defer w.Close()
	n := 1 << 14
	keys := gen.Uniform[uint32](n, 0, 5)
	vals := gen.RIDs[uint32](n)
	tmpK, tmpV := make([]uint32, n), make([]uint32, n)
	work := make([]uint32, n)
	opt := Options{Threads: 4, RadixBits: 4, Workspace: w}
	sortOnce := func() {
		copy(work, keys)
		LSB(work, vals, tmpK, tmpV, opt)
	}
	sortOnce()
	if a := testing.AllocsPerRun(10, sortOnce); a != 0 {
		t.Fatalf("warm fused LSB allocates %v times per sort", a)
	}
}

// TestLSBFusedPathEngaged pins the budget gate: narrow passes (cache-
// resident joint tables) take the fused driver, 8-bit passes (the width
// rule's narrowest) fall back to per-pass histogramming (their 1.5 MiB-per-worker joint
// tables cost more than the scans they save).
func TestLSBFusedPathEngaged(t *testing.T) {
	// 8 passes of 4 bits: 7 joint tables of 256 cells each, L1-resident.
	narrow := make([][2]uint, 0, 8)
	for lo := uint(0); lo < 32; lo += 4 {
		narrow = append(narrow, [2]uint{lo, lo + 4})
	}
	if part.FusedJointCells(narrow) > fusedCellBudget {
		t.Fatal("4-bit passes exceed the fused budget; fused path untested")
	}
	// 8-bit passes must NOT fuse: 3*2^16 cells per worker.
	wide := [][2]uint{{0, 8}, {8, 16}, {16, 24}, {24, 32}}
	if part.FusedJointCells(wide) <= fusedCellBudget {
		t.Fatal("8-bit passes unexpectedly within the fused budget")
	}
}

func TestLSBWorkspaceNUMA(t *testing.T) {
	w := ws.New()
	defer w.Close()
	topo := numa.NewTopology(4)
	for name, orig := range sortWorkloads32(1 << 14) {
		t.Run(name, func(t *testing.T) {
			keys := append([]uint32(nil), orig...)
			vals := gen.RIDs[uint32](len(keys))
			origV := append([]uint32(nil), vals...)
			LSB(keys, vals, make([]uint32, len(keys)), make([]uint32, len(keys)),
				Options{Threads: 8, Topo: topo, Workspace: w})
			checkSorted(t, orig, origV, keys, vals, true)
		})
	}
}

func TestCMPWorkspace(t *testing.T) {
	w := ws.New()
	defer w.Close()
	for _, threads := range []int{1, 4} {
		for name, orig := range sortWorkloads32(1 << 14) {
			t.Run(name, func(t *testing.T) {
				keys := append([]uint32(nil), orig...)
				vals := gen.RIDs[uint32](len(keys))
				origV := append([]uint32(nil), vals...)
				CMP(keys, vals, make([]uint32, len(keys)), make([]uint32, len(keys)),
					Options{Threads: threads, Workspace: w})
				checkSorted(t, orig, origV, keys, vals, false)
			})
		}
	}
}

func TestMSBWorkspace(t *testing.T) {
	w := ws.New()
	defer w.Close()
	for _, threads := range []int{1, 4} {
		for name, orig := range sortWorkloads32(1 << 14) {
			t.Run(name, func(t *testing.T) {
				keys := append([]uint32(nil), orig...)
				vals := gen.RIDs[uint32](len(keys))
				origV := append([]uint32(nil), vals...)
				MSB(keys, vals, Options{Threads: threads, Workspace: w})
				checkSorted(t, orig, origV, keys, vals, false)
			})
		}
	}
}

func TestWorkspace64(t *testing.T) {
	w := ws.New()
	defer w.Close()
	n := 1 << 13
	orig := gen.Uniform[uint64](n, 1<<45, 77)
	for _, alg := range []string{"lsb", "cmp", "msb"} {
		t.Run(alg, func(t *testing.T) {
			keys := append([]uint64(nil), orig...)
			vals := gen.RIDs[uint64](n)
			origV := append([]uint64(nil), vals...)
			opt := Options{Threads: 4, Workspace: w, RadixBits: 11}
			switch alg {
			case "lsb":
				LSB(keys, vals, make([]uint64, n), make([]uint64, n), opt)
			case "cmp":
				CMP(keys, vals, make([]uint64, n), make([]uint64, n), opt)
			case "msb":
				MSB(keys, vals, opt)
			}
			checkSorted(t, orig, origV, keys, vals, alg == "lsb")
		})
	}
}

// TestWorkspaceStatsCounters verifies the hit/miss wiring: a cold sort
// reports misses, and a warm same-shape re-sort reports zero new misses
// with nonzero hits.
func TestWorkspaceStatsCounters(t *testing.T) {
	w := ws.New()
	defer w.Close()
	n := 1 << 14
	run := func() Stats {
		keys := gen.Uniform[uint32](n, 0, 5)
		vals := gen.RIDs[uint32](n)
		var st Stats
		LSB(keys, vals, make([]uint32, n), make([]uint32, n),
			Options{Threads: 4, Workspace: w, Stats: &st})
		return st
	}
	cold := run()
	if cold.WorkspaceMisses == 0 {
		t.Fatal("cold run reported no workspace misses")
	}
	warm := run()
	if warm.WorkspaceMisses != 0 {
		t.Fatalf("warm run reported %d workspace misses (hits %d)",
			warm.WorkspaceMisses, warm.WorkspaceHits)
	}
	if warm.WorkspaceHits == 0 {
		t.Fatal("warm run reported no workspace hits")
	}
}

// TestLSBWorkspaceZeroAlloc is the tentpole acceptance check: a warm
// workspace-backed single-threaded LSB sort makes zero heap allocations,
// both at 8-bit digits (2^14 keys) and where the width rule picks wider
// tables (2^16 keys: three 11-bit passes).
func TestLSBWorkspaceZeroAlloc(t *testing.T) {
	w := ws.New()
	defer w.Close()
	for _, n := range []int{1 << 14, 1 << 16} {
		keys := gen.Uniform[uint32](n, 0, 5)
		vals := gen.RIDs[uint32](n)
		tmpK, tmpV := make([]uint32, n), make([]uint32, n)
		work := make([]uint32, n)
		opt := Options{Threads: 1, Workspace: w}
		sortOnce := func() {
			copy(work, keys)
			LSB(work, vals, tmpK, tmpV, opt)
		}
		sortOnce() // warm the arena
		if a := testing.AllocsPerRun(10, sortOnce); a != 0 {
			bits, _ := lsbWidth(n, 32)
			t.Fatalf("n=%d (%d-bit digits): warm workspace LSB allocates %v times per sort", n, bits, a)
		}
	}
}

// TestMSBWorkspaceZeroAlloc pins the recursion scratch (histograms, swap
// line buffers) as pooled on the single-threaded path.
func TestMSBWorkspaceZeroAlloc(t *testing.T) {
	w := ws.New()
	defer w.Close()
	n := 1 << 13
	keys := gen.Uniform[uint32](n, 0, 5)
	vals := gen.RIDs[uint32](n)
	work, workV := make([]uint32, n), make([]uint32, n)
	opt := Options{Threads: 1, Workspace: w}
	sortOnce := func() {
		copy(work, keys)
		copy(workV, vals)
		MSB(work, workV, opt)
	}
	sortOnce()
	if a := testing.AllocsPerRun(10, sortOnce); a != 0 {
		t.Fatalf("warm workspace MSB allocates %v times per sort", a)
	}
}

// TestWorkspaceSharedAcrossAlgorithms reuses one workspace across all three
// sorts and key widths in sequence — the server scenario.
func TestWorkspaceSharedAcrossAlgorithms(t *testing.T) {
	w := ws.New()
	defer w.Close()
	n := 1 << 13
	for round := 0; round < 3; round++ {
		keys := gen.ZipfKeys[uint32](n, 1<<24, 1.05, uint64(round+1))
		vals := gen.RIDs[uint32](n)
		orig := append([]uint32(nil), keys...)
		origV := append([]uint32(nil), vals...)
		LSB(keys, vals, make([]uint32, n), make([]uint32, n), Options{Threads: 4, Workspace: w})
		checkSorted(t, orig, origV, keys, vals, true)

		k64 := gen.Uniform[uint64](n, 1<<50, uint64(round+11))
		v64 := gen.RIDs[uint64](n)
		o64 := append([]uint64(nil), k64...)
		oV64 := append([]uint64(nil), v64...)
		CMP(k64, v64, make([]uint64, n), make([]uint64, n), Options{Threads: 4, Workspace: w})
		checkSorted(t, o64, oV64, k64, v64, false)

		k2 := gen.Uniform[uint32](n, 0, uint64(round+21))
		v2 := gen.RIDs[uint32](n)
		o2 := append([]uint32(nil), k2...)
		oV2 := append([]uint32(nil), v2...)
		MSB(k2, v2, Options{Threads: 4, Workspace: w})
		checkSorted(t, o2, oV2, k2, v2, false)
	}
	if !kv.IsSorted([]uint32{}) {
		t.Fatal("sanity")
	}
}
