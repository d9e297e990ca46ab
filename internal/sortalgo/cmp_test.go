package sortalgo

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/kv"
	"repro/internal/numa"
	"repro/internal/obs"
	"repro/internal/rangeidx"
	"repro/internal/splitter"
	"repro/internal/ws"
)

func runCMP32(t *testing.T, orig []uint32, opt Options) {
	t.Helper()
	keys := append([]uint32(nil), orig...)
	vals := gen.RIDs[uint32](len(keys))
	origV := append([]uint32(nil), vals...)
	tmpK := make([]uint32, len(keys))
	tmpV := make([]uint32, len(keys))
	CMP(keys, vals, tmpK, tmpV, opt)
	checkSorted(t, orig, origV, keys, vals, false)
}

func TestCMPSingleRegion(t *testing.T) {
	for name, orig := range sortWorkloads32(1 << 14) {
		t.Run(name, func(t *testing.T) {
			runCMP32(t, orig, Options{Threads: 4, CacheTuples: 1024})
		})
	}
}

func TestCMPNUMA(t *testing.T) {
	topo := numa.NewTopology(4)
	for name, orig := range sortWorkloads32(1 << 14) {
		t.Run(name, func(t *testing.T) {
			runCMP32(t, orig, Options{Threads: 8, Topo: topo, CacheTuples: 1024})
		})
	}
}

func TestCMPNUMATransferBound(t *testing.T) {
	topo := numa.NewTopology(4)
	n := 1 << 16
	keys := gen.Uniform[uint32](n, 0, 3)
	vals := gen.RIDs[uint32](n)
	tmpK := make([]uint32, n)
	tmpV := make([]uint32, n)
	topo.ResetTransfers()
	var st Stats
	CMP(keys, vals, tmpK, tmpV, Options{Threads: 8, Topo: topo, Stats: &st, CacheTuples: 2048})
	if bound := uint64(n) * 8; st.RemoteBytes > bound {
		t.Fatalf("remote bytes %d exceed one-crossing bound %d", st.RemoteBytes, bound)
	}
	if !kv.IsSorted(keys) {
		t.Fatal("not sorted")
	}
	if st.Histogram == 0 || st.Partition == 0 || st.Shuffle == 0 || st.CacheSort == 0 {
		t.Fatalf("phase breakdown incomplete: %+v", st)
	}
}

func TestCMPSmallInput(t *testing.T) {
	// Entirely cache-resident input: single comb-sort leaf.
	runCMP32(t, gen.Uniform[uint32](500, 0, 7), Options{Threads: 2, CacheTuples: 1024})
}

func TestCMP64(t *testing.T) {
	n := 1 << 13
	keys := gen.Uniform[uint64](n, 0, 9)
	orig := append([]uint64(nil), keys...)
	vals := gen.RIDs[uint64](n)
	origV := append([]uint64(nil), vals...)
	tmpK := make([]uint64, n)
	tmpV := make([]uint64, n)
	CMP(keys, vals, tmpK, tmpV, Options{Threads: 4, Topo: numa.NewTopology(2), CacheTuples: 512})
	checkSorted(t, orig, origV, keys, vals, false)
}

func TestCMPSkewSingleKeyPartitions(t *testing.T) {
	n := 1 << 15
	keys := gen.ZipfKeys[uint32](n, 1<<18, 1.2, 7)
	runCMP32(t, keys, Options{Threads: 4, CacheTuples: 512, RangeFanout: 64})
}

func TestCMPAllEqual(t *testing.T) {
	runCMP32(t, gen.AllEqual[uint32](1<<14, 42), Options{Threads: 4, CacheTuples: 512})
}

func TestCMPQuick(t *testing.T) {
	topo := numa.NewTopology(2)
	f := func(raw []uint32, threads uint8, fanout uint8) bool {
		keys := append([]uint32(nil), raw...)
		vals := gen.RIDs[uint32](len(keys))
		tmpK := make([]uint32, len(keys))
		tmpV := make([]uint32, len(keys))
		CMP(keys, vals, tmpK, tmpV, Options{
			Threads:     int(threads%6) + 1,
			Topo:        topo,
			CacheTuples: 128,
			RangeFanout: int(fanout%30) + 2,
		})
		return kv.IsSorted(keys) &&
			kv.ChecksumPairs(keys, vals) == kv.ChecksumPairs(raw, gen.RIDs[uint32](len(raw)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestCMPSplitterSampleVolume bounds the splitter sampling of the
// recursion: each recursion node sizes its sample to the node, so a run
// whose 360 top-level partitions all recurse draws far fewer keys than it
// sorts (a fixed 64-per-bucket sample per node would draw about n), on
// both layouts.
func TestCMPSplitterSampleVolume(t *testing.T) {
	n := 1 << 20
	orig := gen.Uniform[uint32](n, 0, 17)
	for _, inPlace := range []bool{false, true} {
		keys := append([]uint32(nil), orig...)
		vals := gen.RIDs[uint32](n)
		var tmpK, tmpV []uint32
		if !inPlace {
			tmpK, tmpV = make([]uint32, n), make([]uint32, n)
		}
		s := obs.Start(nil)
		CMP(keys, vals, tmpK, tmpV, Options{Threads: 2, CacheTuples: 1024})
		drawn := s.Counters.SplitterSamples.Load()
		_ = obs.Stop()
		if !kv.IsSorted(keys) {
			t.Fatalf("in-place=%v: not sorted", inPlace)
		}
		if drawn > uint64(n/3) {
			t.Fatalf("in-place=%v: drew %d splitter samples for %d keys (%.2f·n), want <= n/3",
				inPlace, drawn, n, float64(drawn)/float64(n))
		}
	}
}

// TestCMPNodeSplittersIsolateHeavyKeys pins duplicate refinement at the
// recursion level under the node-sized sample: a key holding a tenth of
// a node gets a single-key partition, whatever the node's size.
func TestCMPNodeSplittersIsolateHeavyKeys(t *testing.T) {
	const p, heavy = 360, 1 << 20
	for _, n := range []int{1500, 3000, 23000, 200000} {
		keys := gen.Uniform[uint32](n, 0, uint64(n))
		for i := 0; i < n; i += 10 {
			keys[i] = heavy
		}
		delims := cmpSplitters(nil, keys, cmpNodeSamples(n, p), p, uint64(n))
		q := rangeidx.Search(delims, heavy)
		if !splitter.SingleKey(delims, q) {
			t.Fatalf("n=%d: heavy key's partition %d is not single-key", n, q)
		}
	}
}

// TestCMPRecursionAllocs pins the recursion's per-node scratch (sample,
// delimiters, codes, histogram, range tree) as pooled: a warm sort makes
// the same few allocations whether the recursion has 40, 360 or 1640
// nodes.
func TestCMPRecursionAllocs(t *testing.T) {
	w := ws.New()
	defer w.Close()
	n := 1 << 20
	keys := gen.Uniform[uint32](n, 0, 5)
	vals := gen.RIDs[uint32](n)
	tmpK, tmpV := make([]uint32, n), make([]uint32, n)
	work := make([]uint32, n)
	for _, c := range []struct{ fanout, ct, nodes int }{
		{40, 1024, 40}, {360, 1024, 360}, {40, 256, 1640},
	} {
		opt := Options{Threads: 2, RangeFanout: c.fanout, CacheTuples: c.ct, Workspace: w}
		sortOnce := func() {
			copy(work, keys)
			CMP(work, vals, tmpK, tmpV, opt)
		}
		sortOnce() // warm the arena
		if a := testing.AllocsPerRun(3, sortOnce); a > 4 {
			t.Fatalf("%d recursion nodes: warm CMP allocates %v times per sort, want <= 4", c.nodes, a)
		}
	}
}
