package rangeidx

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/kv"
	"repro/internal/simd"
)

// referencePartition is the specification: number of delimiters <= key.
func referencePartition(delims []uint32, key uint32) int {
	n := 0
	for _, d := range delims {
		if d <= key {
			n++
		}
	}
	return n
}

func sortedDelims(n int, seed uint64) []uint32 {
	d := gen.Uniform[uint32](n, 0, seed)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

func TestSearchMatchesReference(t *testing.T) {
	f := func(raw []uint32, key uint32) bool {
		d := append([]uint32(nil), raw...)
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		return Search(d, key) == referencePartition(d, key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSearchBranchlessMatchesSearch(t *testing.T) {
	f := func(raw []uint32, key uint32) bool {
		d := append([]uint32(nil), raw...)
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		return SearchBranchless(d, key) == Search(d, key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSearchEdgeCases(t *testing.T) {
	if Search([]uint32{}, 5) != 0 {
		t.Error("empty delimiters")
	}
	d := []uint32{10, 20, 30}
	cases := []struct {
		key  uint32
		want int
	}{
		{0, 0}, {9, 0}, {10, 1}, {15, 1}, {20, 2}, {29, 2}, {30, 3}, {100, 3},
	}
	for _, c := range cases {
		if got := Search(d, c.key); got != c.want {
			t.Errorf("Search(%d) = %d, want %d", c.key, got, c.want)
		}
	}
	// Duplicated delimiter: keys equal to it skip past all copies.
	dup := []uint32{10, 10, 20}
	if got := Search(dup, 10); got != 2 {
		t.Errorf("Search(dup,10) = %d, want 2", got)
	}
}

func TestHorizontal17x32(t *testing.T) {
	for _, nd := range []int{0, 1, 4, 7, 15, 16} {
		d := sortedDelims(nd, uint64(nd)+1)
		h := NewHorizontal17x32(d)
		if h.Fanout() != nd+1 {
			t.Fatalf("Fanout = %d", h.Fanout())
		}
		f := func(key uint32) bool {
			return h.Partition(key) == referencePartition(d, key)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("nd=%d: %v", nd, err)
		}
		// MaxKey must land in the last real partition.
		if got := h.Partition(^uint32(0)); got != nd {
			t.Fatalf("nd=%d: Partition(max) = %d", nd, got)
		}
	}
}

func TestHorizontalRejectsTooMany(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 17 delimiters")
		}
	}()
	NewHorizontal17x32(make([]uint32, 17))
}

func TestVertical32(t *testing.T) {
	for _, depth := range []int{1, 2, 3, 4} {
		maxD := 1<<depth - 1
		for _, nd := range []int{0, 1, maxD / 2, maxD} {
			d := sortedDelims(nd, uint64(depth*100+nd)+1)
			v := NewVertical32(d, depth)
			if v.Fanout() != nd+1 {
				t.Fatalf("Fanout = %d", v.Fanout())
			}
			f := func(key uint32) bool {
				return v.Partition(key) == referencePartition(d, key)
			}
			if err := quick.Check(f, nil); err != nil {
				t.Fatalf("depth=%d nd=%d: %v", depth, nd, err)
			}
		}
	}
}

func TestVertical32Batch(t *testing.T) {
	d := sortedDelims(7, 99)
	v := NewVertical32(d, 3)
	keys := gen.Uniform[uint32](4096, 0, 5)
	for i := 0; i+4 <= len(keys); i += 4 {
		got := v.Partition4(simd.Load4x32(keys[i : i+4]))
		for l := 0; l < 4; l++ {
			want := referencePartition(d, keys[i+l])
			if got[l] != want {
				t.Fatalf("lane %d key %d: got %d want %d", l, keys[i+l], got[l], want)
			}
		}
	}
}

func TestVerticalValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for depth 5")
		}
	}()
	NewVertical32(nil, 5)
}

func TestTreePaperExample(t *testing.T) {
	// The paper's example: 24 delimiters in 2 levels (5-way then 5-way).
	// First level: 5,10,15,20; second level: (1,2,3,4),(6,7,8,9),...
	delims := make([]uint32, 24)
	for i := range delims {
		delims[i] = uint32(i + 1)
	}
	tree := BuildTree(delims, []int{5, 5})
	wantL0 := []uint32{5, 10, 15, 20}
	for i, w := range wantL0 {
		if tree.levels[0][i] != w {
			t.Fatalf("level 0 = %v", tree.levels[0])
		}
	}
	wantL1 := []uint32{1, 2, 3, 4, 6, 7, 8, 9, 11, 12, 13, 14, 16, 17, 18, 19, 21, 22, 23, 24}
	for i, w := range wantL1 {
		if tree.levels[1][i] != w {
			t.Fatalf("level 1 = %v", tree.levels[1])
		}
	}
	for key := uint32(0); key <= 25; key++ {
		if got, want := tree.Partition(key), referencePartition(delims, key); got != want {
			t.Fatalf("Partition(%d) = %d, want %d", key, got, want)
		}
	}
}

func TestTreeMatchesSearchAllConfigs(t *testing.T) {
	for _, cfg := range treeConfigs {
		capacity := 1
		for _, f := range cfg {
			capacity *= f
		}
		for _, nd := range []int{0, 1, capacity / 2, capacity - 1} {
			d := sortedDelims(nd, uint64(capacity+nd)+7)
			tree := BuildTree(d, cfg)
			keys := gen.Uniform[uint32](2000, 0, uint64(nd)+3)
			keys = append(keys, 0, ^uint32(0))
			for _, k := range keys {
				if got, want := tree.Partition(k), Search(d, k); got != want {
					t.Fatalf("cfg=%v nd=%d key=%d: tree=%d search=%d", cfg, nd, k, got, want)
				}
			}
		}
	}
}

func TestTree64(t *testing.T) {
	d := gen.Uniform[uint64](999, 0, 11)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	tree := NewTreeFor(d)
	keys := gen.Uniform[uint64](5000, 0, 13)
	keys = append(keys, 0, ^uint64(0))
	for _, k := range keys {
		if got, want := tree.Partition(k), Search(d, k); got != want {
			t.Fatalf("key=%d: tree=%d search=%d", k, got, want)
		}
	}
}

// TestTreeLookupBatch pins the node search on every menu configuration
// at both key widths: full and padded trees (nd < capacity-1, so padding
// partitions stay empty), keys equal to each delimiter and one either
// side of it, 0 and the maximum key, and every batch length from 0 to 17
// around the 8-key unroll, plus a long odd length. LookupBatch, Partition
// and Search must agree on every key.
func TestTreeLookupBatch(t *testing.T) {
	for _, cfg := range treeConfigs {
		capacity := 1
		for _, f := range cfg {
			capacity *= f
		}
		for _, nd := range []int{0, 1, capacity / 3, capacity - 2, capacity - 1} {
			seed := uint64(capacity*7 + nd)
			checkLookupBatch(t, cfg, gen.Uniform[uint32](nd, 0, seed), gen.Uniform[uint32](1003, 0, seed+1))
			checkLookupBatch(t, cfg, gen.Uniform[uint64](nd, 0, seed), gen.Uniform[uint64](1003, 0, seed+1))
		}
	}
}

func checkLookupBatch[K kv.Key](t *testing.T, cfg []int, d, random []K) {
	t.Helper()
	slices.Sort(d)
	tree := BuildTree(d, cfg)
	keys := []K{0, kv.MaxKey[K]()}
	for _, x := range d {
		keys = append(keys, x-1, x, x+1)
	}
	keys = append(keys, random...)
	check := func(keys []K) {
		out := make([]int32, len(keys))
		tree.LookupBatch(keys, out)
		for i, k := range keys {
			want := Search(d, k)
			if int(out[i]) != want || tree.Partition(k) != want {
				t.Fatalf("%d-bit cfg=%v nd=%d len=%d key=%d: batch %d, Partition %d, Search %d",
					kv.Width[K](), cfg, len(d), len(keys), k, out[i], tree.Partition(k), want)
			}
		}
	}
	check(keys)
	for n := 0; n <= 17; n++ {
		check(keys[len(keys)-n:])
	}
}

// TestTreeReset rebuilds one Tree over delimiter sets of shrinking and
// growing size: each rebuild answers like a fresh NewTreeFor, and a
// rebuild that fits the storage already held allocates nothing.
func TestTreeReset(t *testing.T) {
	var tree Tree[uint64]
	for _, nd := range []int{999, 39, 0, 359, 4, 999} {
		d := gen.Uniform[uint64](nd, 0, uint64(nd)+5)
		slices.Sort(d)
		tree.Reset(d)
		if got, want := tree.Levels(), ChooseFanouts(nd+1); !slices.Equal(got, want) {
			t.Fatalf("nd=%d: levels %v, want %v", nd, got, want)
		}
		for _, k := range append(gen.Uniform[uint64](500, 0, 9), d...) {
			if got, want := tree.Partition(k), Search(d, k); got != want {
				t.Fatalf("nd=%d key=%d: tree=%d search=%d", nd, k, got, want)
			}
		}
		if a := testing.AllocsPerRun(5, func() { tree.Reset(d) }); a != 0 {
			t.Fatalf("nd=%d: Reset into held storage allocates %v times", nd, a)
		}
	}
}

func TestTreeDuplicateDelimiters(t *testing.T) {
	// Duplicate delimiters create intentionally empty partitions (used for
	// single-key partitions under skew); lookups must still match Search.
	d := []uint32{5, 10, 10, 10, 20, 30, 30}
	tree := NewTreeFor(d)
	for key := uint32(0); key < 40; key++ {
		if got, want := tree.Partition(key), Search(d, key); got != want {
			t.Fatalf("Partition(%d) = %d, want %d", key, got, want)
		}
	}
}

func TestChooseFanouts(t *testing.T) {
	cases := []struct {
		p    int
		want int // minimal capacity covering p
	}{
		{2, 5}, {5, 5}, {6, 8}, {9, 9}, {17, 25}, {300, 360}, {360, 360},
		{500, 1000}, {1500, 1800}, {5832, 5832}, {9000, 9000},
	}
	for _, c := range cases {
		cfg := ChooseFanouts(c.p)
		capacity := 1
		for _, f := range cfg {
			capacity *= f
		}
		if capacity != c.want {
			t.Errorf("ChooseFanouts(%d) = %v (cap %d), want cap %d", c.p, cfg, capacity, c.want)
		}
	}
	// Beyond the menu: extended with 9-way levels.
	cfg := ChooseFanouts(100000)
	capacity := 1
	for _, f := range cfg {
		capacity *= f
	}
	if capacity < 100000 {
		t.Errorf("extended config %v capacity %d < 100000", cfg, capacity)
	}
}

func TestBuildTreeValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("no levels", func() { BuildTree([]uint32{1}, nil) })
	mustPanic("overflow", func() { BuildTree(make([]uint32, 25), []int{5, 5}) })
	mustPanic("unsorted", func() { BuildTree([]uint32{2, 1}, []int{5}) })
	mustPanic("fanout<2", func() { BuildTree([]uint32{1}, []int{1, 5}) })
}

// BenchmarkTreeLookupBatch times the batched range function over 1 Mi
// uniform keys for the 40-way (8x5), 360-way (8x5x9) and 1000-way
// (8x5x5x5) menu configurations at both key widths.
func BenchmarkTreeLookupBatch(b *testing.B) {
	const n = 1 << 20
	for _, p := range []int{40, 360, 1000} {
		b.Run(fmt.Sprintf("u32/p=%d", p), func(b *testing.B) {
			benchLookupBatch(b, gen.Uniform[uint32](n, 0, 3), p)
		})
		b.Run(fmt.Sprintf("u64/p=%d", p), func(b *testing.B) {
			benchLookupBatch(b, gen.Uniform[uint64](n, 0, 3), p)
		})
	}
}

func benchLookupBatch[K kv.Key](b *testing.B, keys []K, p int) {
	d := append([]K(nil), keys[:p-1]...)
	slices.Sort(d)
	tree := NewTreeFor(d)
	out := make([]int32, len(keys))
	b.SetBytes(int64(len(keys)) * int64(kv.Width[K]()/8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.LookupBatch(keys, out)
	}
	b.ReportMetric(float64(len(keys))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mkeys/s")
}
