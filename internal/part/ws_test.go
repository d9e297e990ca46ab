package part

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/kv"
	"repro/internal/pfunc"
	"repro/internal/ws"
)

// wsEquiv runs the same partitioning through the plain and workspace-backed
// entry points and verifies identical output.
func wsEquiv[K kv.Key](t *testing.T, keys []K, bits uint) {
	t.Helper()
	w := ws.New()
	fn := pfunc.NewRadix[K](0, bits)
	vals := gen.RIDs[K](len(keys))
	hist := Histogram(keys, fn)
	starts, _ := Starts(hist)

	n := len(keys)
	plainK, plainV := make([]K, n), make([]K, n)
	NonInPlaceOutOfCache(keys, vals, plainK, plainV, fn, starts)

	wsK, wsV := make([]K, n), make([]K, n)
	NonInPlaceOutOfCacheWS(w, keys, vals, wsK, wsV, fn, starts)
	for i := range plainK {
		if plainK[i] != wsK[i] || plainV[i] != wsV[i] {
			t.Fatalf("WS scatter diverges from plain at %d: (%d,%d) vs (%d,%d)",
				i, plainK[i], plainV[i], wsK[i], wsV[i])
		}
	}

	inK, inV := append([]K(nil), keys...), append([]K(nil), vals...)
	InPlaceOutOfCacheWS(w, inK, inV, fn, hist)
	checkPartitioned(t, keys, vals, inK, inV, fn, hist)

	icK, icV := append([]K(nil), keys...), append([]K(nil), vals...)
	InPlaceInCacheWS(w, icK, icV, fn, hist)
	checkPartitioned(t, keys, vals, icK, icV, fn, hist)

	ncK, ncV := make([]K, n), make([]K, n)
	NonInPlaceInCacheWS(w, keys, vals, ncK, ncV, fn, hist)
	for i := range plainK {
		if plainK[i] != ncK[i] || plainV[i] != ncV[i] {
			t.Fatalf("in-cache WS scatter diverges from plain at %d", i)
		}
	}
}

func TestWSKernelsMatchPlain(t *testing.T) {
	for name, keys := range workloads32(5000) {
		t.Run(name, func(t *testing.T) {
			wsEquiv(t, keys, 6)
		})
	}
	wsEquiv(t, gen.Uniform[uint64](5000, 1<<40, 9), 8)
}

func TestWSCodesScatterMatchesPlain(t *testing.T) {
	w := ws.New()
	keys := gen.Uniform[uint32](4000, 0, 11)
	vals := gen.RIDs[uint32](len(keys))
	fn := pfunc.NewHash[uint32](128)
	codes := make([]int32, len(keys))
	hist := HistogramCodes(keys, fn, codes)
	starts, _ := Starts(hist)

	n := len(keys)
	plainK, plainV := make([]uint32, n), make([]uint32, n)
	NonInPlaceOutOfCacheCodesCtlWS(nil, keys, vals, plainK, plainV, codes, len(hist), starts, nil)

	wsK, wsV := make([]uint32, n), make([]uint32, n)
	NonInPlaceOutOfCacheCodesCtlWS(w, keys, vals, wsK, wsV, codes, len(hist), starts, nil)
	for i := range plainK {
		if plainK[i] != wsK[i] || plainV[i] != wsV[i] {
			t.Fatalf("codes WS scatter diverges from plain at %d", i)
		}
	}

	// The WS variant must not mutate the caller's starts array (it copies
	// into a pooled offset array instead).
	again, _ := Starts(hist)
	for p := range starts {
		if starts[p] != again[p] {
			t.Fatalf("starts[%d] mutated: %d vs %d", p, starts[p], again[p])
		}
	}
}

func TestWSScatterZeroAlloc(t *testing.T) {
	w := ws.New()
	keys := gen.Uniform[uint32](1<<14, 0, 21)
	vals := gen.RIDs[uint32](len(keys))
	fn := pfunc.NewRadix[uint32](0, 8)
	hist := Histogram(keys, fn)
	starts, _ := Starts(hist)
	n := len(keys)
	dstK, dstV := make([]uint32, n), make([]uint32, n)

	// Warm once so line buffers and offset arrays enter the arena.
	NonInPlaceOutOfCacheWS(w, keys, vals, dstK, dstV, fn, starts)
	if a := testing.AllocsPerRun(10, func() {
		NonInPlaceOutOfCacheWS(w, keys, vals, dstK, dstV, fn, starts)
	}); a != 0 {
		t.Fatalf("warm NonInPlaceOutOfCacheWS allocates %v times", a)
	}

	inK, inV := append([]uint32(nil), keys...), append([]uint32(nil), vals...)
	InPlaceOutOfCacheWS(w, inK, inV, fn, hist)
	if a := testing.AllocsPerRun(10, func() {
		InPlaceOutOfCacheWS(w, inK, inV, fn, hist)
	}); a != 0 {
		t.Fatalf("warm InPlaceOutOfCacheWS allocates %v times", a)
	}

	InPlaceInCacheWS(w, inK, inV, fn, hist)
	if a := testing.AllocsPerRun(10, func() {
		InPlaceInCacheWS(w, inK, inV, fn, hist)
	}); a != 0 {
		t.Fatalf("warm InPlaceInCacheWS allocates %v times", a)
	}

	NonInPlaceInCacheWS(w, keys, vals, dstK, dstV, fn, hist)
	if a := testing.AllocsPerRun(10, func() {
		NonInPlaceInCacheWS(w, keys, vals, dstK, dstV, fn, hist)
	}); a != 0 {
		t.Fatalf("warm NonInPlaceInCacheWS allocates %v times", a)
	}

	// The generic dispatch arm (non-Radix fn) must stay zero-alloc too: the
	// radix specialization is a fast path, not a requirement.
	hfn := pfunc.NewHash[uint32](256)
	hh := Histogram(keys, hfn)
	hs, _ := Starts(hh)
	NonInPlaceOutOfCacheWS(w, keys, vals, dstK, dstV, hfn, hs)
	if a := testing.AllocsPerRun(10, func() {
		NonInPlaceOutOfCacheWS(w, keys, vals, dstK, dstV, hfn, hs)
	}); a != 0 {
		t.Fatalf("warm generic NonInPlaceOutOfCacheWS allocates %v times", a)
	}

	// Unrolled code-driven scatter.
	codes := make([]int32, len(keys))
	ch := HistogramCodes(keys, fn, codes)
	cs, _ := Starts(ch)
	NonInPlaceOutOfCacheCodesCtlWS(w, keys, vals, dstK, dstV, codes, len(ch), cs, nil)
	if a := testing.AllocsPerRun(10, func() {
		NonInPlaceOutOfCacheCodesCtlWS(w, keys, vals, dstK, dstV, codes, len(ch), cs, nil)
	}); a != 0 {
		t.Fatalf("warm NonInPlaceOutOfCacheCodesCtlWS allocates %v times", a)
	}
}

// TestMultiHistogramFlatZeroAlloc pins the flat padded layout's contract:
// one pooled buffer, no per-row allocations.
func TestMultiHistogramFlatZeroAlloc(t *testing.T) {
	w := ws.New()
	defer w.Close()
	keys := gen.Uniform[uint64](1<<14, 0, 23)
	ranges := [][2]uint{{0, 8}, {8, 16}, {16, 24}}
	var rows [3][]int
	flat := w.Ints(MultiHistogramFlatLen(ranges))
	defer w.PutInts(flat)
	if a := testing.AllocsPerRun(10, func() {
		MultiHistogramFlatInto(rows[:], flat, keys, ranges)
	}); a != 0 {
		t.Fatalf("MultiHistogramFlatInto allocates %v times", a)
	}
}

func TestMergeHistogramsInto(t *testing.T) {
	hists := [][]int{{1, 2, 3}, {4, 5, 6}, {0, 1, 0}}
	out := make([]int, 3)
	out[0] = 99 // must be cleared
	got := MergeHistogramsInto(out, hists)
	want := []int{5, 8, 9}
	for p := range want {
		if got[p] != want[p] {
			t.Fatalf("merged = %v, want %v", got, want)
		}
	}
	plain := MergeHistograms(hists)
	for p := range want {
		if plain[p] != want[p] {
			t.Fatalf("MergeHistograms = %v", plain)
		}
	}
}

func TestThreadStartsInto(t *testing.T) {
	hists := [][]int{{2, 0, 3}, {1, 4, 0}}
	wantStarts, wantGlobal := ThreadStarts(hists, 10)
	starts := [][]int{make([]int, 3), make([]int, 3)}
	global := make([]int, 3)
	gotStarts, gotGlobal := ThreadStartsInto(starts, global, hists, 10)
	for t2 := range wantStarts {
		for p := range wantStarts[t2] {
			if gotStarts[t2][p] != wantStarts[t2][p] {
				t.Fatalf("starts[%d][%d] = %d, want %d", t2, p, gotStarts[t2][p], wantStarts[t2][p])
			}
		}
	}
	for p := range wantGlobal {
		if gotGlobal[p] != wantGlobal[p] {
			t.Fatalf("global[%d] = %d, want %d", p, gotGlobal[p], wantGlobal[p])
		}
	}
}

func TestChunkBoundsInto(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		for _, n := range []int{0, 1, 100, 1001} {
			want := ChunkBounds(n, workers)
			got := ChunkBoundsInto(make([]int, workers+1), n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("bounds(%d,%d)[%d] = %d, want %d", n, workers, i, got[i], want[i])
				}
			}
			if got[0] != 0 || got[workers] != n {
				t.Fatalf("bounds(%d,%d) endpoints %v", n, workers, got)
			}
		}
	}
}

// TestFusedHistograms checks the one-read-pass tables against the
// independently computed per-pass and per-chunk histograms.
func TestFusedHistograms(t *testing.T) {
	w := ws.New()
	defer w.Close()
	ranges := [][2]uint{{0, 6}, {6, 12}, {12, 17}}
	for name, keys := range workloads32(6000) {
		t.Run(name, func(t *testing.T) {
			workers := 4
			bounds := ChunkBounds(len(keys), workers)
			h0, joints := FusedHistograms(w, keys, ranges, bounds)

			// Pass-0 per-worker histograms match direct chunk histograms.
			fn0 := pfunc.NewRadix[uint32](ranges[0][0], ranges[0][1])
			for t2 := 0; t2 < workers; t2++ {
				direct := Histogram(keys[bounds[t2]:bounds[t2+1]], fn0)
				for p := range direct {
					if h0[t2][p] != direct[p] {
						t.Fatalf("h0[%d][%d] = %d, want %d", t2, p, h0[t2][p], direct[p])
					}
				}
			}

			// Joint row/column sums match global per-pass histograms.
			multi := MultiHistogram(keys, ranges)
			for k := 0; k+1 < len(ranges); k++ {
				pk := 1 << (ranges[k][1] - ranges[k][0])
				pk1 := 1 << (ranges[k+1][1] - ranges[k+1][0])
				for d := 0; d < pk; d++ {
					sum := 0
					for e := 0; e < pk1; e++ {
						sum += joints[k][d*pk1+e]
					}
					if sum != multi[k][d] {
						t.Fatalf("joint[%d] row %d sums to %d, want %d", k, d, sum, multi[k][d])
					}
				}
				for e := 0; e < pk1; e++ {
					sum := 0
					for d := 0; d < pk; d++ {
						sum += joints[k][d*pk1+e]
					}
					if sum != multi[k+1][e] {
						t.Fatalf("joint[%d] col %d sums to %d, want %d", k, e, sum, multi[k+1][e])
					}
				}
			}
			w.PutMatrix(h0)
			w.PutMatrix(joints)
		})
	}
}

func TestFusedHistogramsSinglePass(t *testing.T) {
	w := ws.New()
	defer w.Close()
	keys := gen.Uniform[uint32](1000, 0, 3)
	bounds := ChunkBounds(len(keys), 2)
	h0, joints := FusedHistograms(w, keys, [][2]uint{{0, 8}}, bounds)
	if joints != nil {
		t.Fatal("single pass must not build joint tables")
	}
	merged := MergeHistograms(h0)
	direct := Histogram(keys, pfunc.NewRadix[uint32](0, 8))
	for p := range direct {
		if merged[p] != direct[p] {
			t.Fatalf("merged h0[%d] = %d, want %d", p, merged[p], direct[p])
		}
	}
	w.PutMatrix(h0)
}

func TestFusedJointCells(t *testing.T) {
	if got := FusedJointCells([][2]uint{{0, 8}}); got != 0 {
		t.Fatalf("single pass cells = %d", got)
	}
	if got := FusedJointCells([][2]uint{{0, 8}, {8, 16}, {16, 20}}); got != 1<<16+1<<12 {
		t.Fatalf("cells = %d", got)
	}
}

// TestParallelWSMatchesPlain drives the parallel WS front doors against
// their allocation-heavy predecessors.
func TestParallelWSMatchesPlain(t *testing.T) {
	w := ws.New()
	defer w.Close()
	keys := gen.ZipfKeys[uint32](8000, 1<<20, 1.1, 17)
	vals := gen.RIDs[uint32](len(keys))
	fn := pfunc.NewRadix[uint32](4, 12)
	workers := 4
	n := len(keys)

	hists, bounds := ParallelHistogramsWS(w, keys, fn, workers)
	plainHists := ParallelHistograms(keys, fn, workers)
	for t2 := range plainHists {
		for p := range plainHists[t2] {
			if hists[t2][p] != plainHists[t2][p] {
				t.Fatalf("hists[%d][%d] = %d, want %d", t2, p, hists[t2][p], plainHists[t2][p])
			}
		}
	}

	wsK, wsV := make([]uint32, n), make([]uint32, n)
	ParallelScatterBoundsWS(w, keys, vals, wsK, wsV, fn, hists, 0, bounds)
	plainK, plainV := make([]uint32, n), make([]uint32, n)
	ParallelScatter(keys, vals, plainK, plainV, fn, plainHists, 0)
	for i := range plainK {
		if plainK[i] != wsK[i] || plainV[i] != wsV[i] {
			t.Fatalf("parallel WS scatter diverges at %d", i)
		}
	}
	w.PutMatrix(hists)
	w.PutInts(bounds)

	ipK, ipV := append([]uint32(nil), keys...), append([]uint32(nil), vals...)
	h2, b2 := ParallelInPlaceSharedNothingWS(w, ipK, ipV, fn, workers)
	for t2 := 0; t2 < workers; t2++ {
		seg := ipK[b2[t2]:b2[t2+1]]
		segV := ipV[b2[t2]:b2[t2+1]]
		checkPartitioned(t, keys[b2[t2]:b2[t2+1]], vals[b2[t2]:b2[t2+1]], seg, segV, fn, h2[t2])
	}
	w.PutMatrix(h2)
	w.PutInts(b2)
}
