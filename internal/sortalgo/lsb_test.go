package sortalgo

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/kv"
	"repro/internal/numa"
)

func TestLSBSingleRegion(t *testing.T) {
	for name, orig := range sortWorkloads32(1 << 14) {
		t.Run(name, func(t *testing.T) {
			keys := append([]uint32(nil), orig...)
			vals := gen.RIDs[uint32](len(keys))
			origV := append([]uint32(nil), vals...)
			tmpK := make([]uint32, len(keys))
			tmpV := make([]uint32, len(keys))
			LSB(keys, vals, tmpK, tmpV, Options{Threads: 4})
			checkSorted(t, orig, origV, keys, vals, true)
		})
	}
}

func TestLSBNUMAAware(t *testing.T) {
	topo := numa.NewTopology(4)
	for name, orig := range sortWorkloads32(1 << 14) {
		t.Run(name, func(t *testing.T) {
			keys := append([]uint32(nil), orig...)
			vals := gen.RIDs[uint32](len(keys))
			origV := append([]uint32(nil), vals...)
			tmpK := make([]uint32, len(keys))
			tmpV := make([]uint32, len(keys))
			LSB(keys, vals, tmpK, tmpV, Options{Threads: 8, Topo: topo})
			checkSorted(t, orig, origV, keys, vals, true)
		})
	}
}

func TestLSBNUMATransferBound(t *testing.T) {
	// Section 4.2.1: every tuple crosses the NUMA interconnect at most
	// once — remote bytes cannot exceed n * tupleBytes.
	topo := numa.NewTopology(4)
	n := 1 << 16
	keys := gen.Uniform[uint32](n, 0, 9)
	vals := gen.RIDs[uint32](n)
	tmpK := make([]uint32, n)
	tmpV := make([]uint32, n)
	topo.ResetTransfers()
	var st Stats
	LSB(keys, vals, tmpK, tmpV, Options{Threads: 8, Topo: topo, Stats: &st})
	bound := uint64(n) * 8
	if st.RemoteBytes > bound {
		t.Fatalf("remote bytes %d exceed one-crossing bound %d", st.RemoteBytes, bound)
	}
	// On 4 regions the expected crossings are (x-1)/x = 0.75 per tuple.
	if st.RemoteBytes < bound/2 {
		t.Fatalf("remote bytes %d suspiciously low (expected ~0.75n tuples)", st.RemoteBytes)
	}
	if !kv.IsSorted(keys) {
		t.Fatal("not sorted")
	}
}

func TestLSBHeavyKeyRefinement(t *testing.T) {
	// A key holding half the input: sampling will pick it repeatedly, the
	// refinement isolates it in a single-key range, and the sort must stay
	// correct, stable, and within the one-crossing NUMA bound.
	topo := numa.NewTopology(4)
	n := 1 << 15
	keys := make([]uint32, n)
	r := gen.NewRNG(3)
	for i := range keys {
		if r.Uint64n(2) == 0 {
			keys[i] = 777777
		} else {
			keys[i] = r.Uint32()
		}
	}
	orig := append([]uint32(nil), keys...)
	vals := gen.RIDs[uint32](n)
	origV := append([]uint32(nil), vals...)
	topo.ResetTransfers()
	var st Stats
	LSB(keys, vals, make([]uint32, n), make([]uint32, n), Options{Threads: 8, Topo: topo, Stats: &st})
	checkSorted(t, orig, origV, keys, vals, true)
	if st.RemoteBytes > uint64(n)*8 {
		t.Fatalf("remote bytes %d exceed one-crossing bound under skew", st.RemoteBytes)
	}
}

func TestLSB64(t *testing.T) {
	topo := numa.NewTopology(2)
	n := 1 << 13
	keys := gen.Uniform[uint64](n, 0, 17)
	orig := append([]uint64(nil), keys...)
	vals := gen.RIDs[uint64](n)
	origV := append([]uint64(nil), vals...)
	tmpK := make([]uint64, n)
	tmpV := make([]uint64, n)
	LSB(keys, vals, tmpK, tmpV, Options{Threads: 4, Topo: topo})
	checkSorted(t, orig, origV, keys, vals, true)
}

func TestLSBOblivious(t *testing.T) {
	topo := numa.NewTopology(4)
	n := 1 << 13
	keys := gen.Uniform[uint32](n, 0, 21)
	orig := append([]uint32(nil), keys...)
	vals := gen.RIDs[uint32](n)
	origV := append([]uint32(nil), vals...)
	tmpK := make([]uint32, n)
	tmpV := make([]uint32, n)
	LSB(keys, vals, tmpK, tmpV, Options{Threads: 8, Topo: topo, Oblivious: true})
	checkSorted(t, orig, origV, keys, vals, true)
}

func TestLSBDomainAdaptive(t *testing.T) {
	// Small domains should need few passes (the LSB advantage on dense
	// compressed data).
	n := 1 << 14
	keys := gen.Uniform[uint32](n, 1000, 5)
	vals := gen.RIDs[uint32](n)
	tmpK := make([]uint32, n)
	tmpV := make([]uint32, n)
	var st Stats
	LSB(keys, vals, tmpK, tmpV, Options{Threads: 2, Stats: &st, RadixBits: 8})
	if !kv.IsSorted(keys) {
		t.Fatal("not sorted")
	}
	if st.Passes > 2 {
		t.Fatalf("10-bit domain should need 2 8-bit passes, did %d", st.Passes)
	}
}

func TestLSBStatsPhases(t *testing.T) {
	topo := numa.NewTopology(4)
	n := 1 << 14
	keys := gen.Uniform[uint32](n, 0, 5)
	vals := gen.RIDs[uint32](n)
	tmpK := make([]uint32, n)
	tmpV := make([]uint32, n)
	var st Stats
	LSB(keys, vals, tmpK, tmpV, Options{Threads: 8, Topo: topo, Stats: &st})
	if st.Histogram == 0 || st.Partition == 0 || st.Shuffle == 0 || st.LocalRadix == 0 {
		t.Fatalf("phase breakdown incomplete: %+v", st)
	}
	if st.Total() == 0 {
		t.Fatal("no time recorded")
	}
}

func TestLSBQuick(t *testing.T) {
	topo := numa.NewTopology(3)
	f := func(raw []uint32, threads uint8) bool {
		keys := append([]uint32(nil), raw...)
		vals := gen.RIDs[uint32](len(keys))
		tmpK := make([]uint32, len(keys))
		tmpV := make([]uint32, len(keys))
		LSB(keys, vals, tmpK, tmpV, Options{Threads: int(threads%8) + 1, Topo: topo, RadixBits: 6})
		if !kv.IsSorted(keys) {
			return false
		}
		// Stability: payloads ascending within equal keys.
		for i := 1; i < len(keys); i++ {
			if keys[i-1] == keys[i] && vals[i-1] >= vals[i] {
				return false
			}
		}
		return kv.ChecksumPairs(keys, vals) == kv.ChecksumPairs(raw, gen.RIDs[uint32](len(raw)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestLSBWidthRule pins LSB's radix width rule (lsbWidth) for both key
// widths over an n ladder, full and narrow domains, and checks on real
// inputs that LSB runs exactly the pinned number of passes. An explicit
// RadixBits always wins over the rule.
func TestLSBWidthRule(t *testing.T) {
	cases := []struct {
		n, keyBits, domainBits int
		bits, passes           int
	}{
		{2, 64, 64, 8, 8},
		{4096, 64, 64, 8, 8},
		{16384, 64, 64, 8, 8},
		{32768, 64, 64, 10, 7},
		{65536, 64, 64, 11, 6},
		{1 << 20, 64, 64, 11, 6},
		{1 << 23, 64, 64, 11, 6},
		{2, 32, 32, 8, 4},
		{4096, 32, 32, 8, 4},
		{16384, 32, 32, 8, 4},
		{32768, 32, 32, 8, 4},
		{65536, 32, 32, 11, 3},
		{1 << 20, 32, 32, 11, 3},
		{1 << 23, 32, 32, 11, 3},
		// Narrow domains: fewer passes, digits never wider than the cap.
		{4096, 32, 5, 5, 1},
		{4096, 64, 40, 8, 5},
		{65536, 32, 16, 8, 2},
		{65536, 64, 20, 10, 2},
		{1 << 20, 32, 12, 12, 1},
		{1 << 20, 32, 24, 12, 2},
		{1 << 20, 64, 20, 10, 2},
		{1 << 23, 32, 17, 9, 2},
	}
	for _, c := range cases {
		bits, passes := lsbWidth(c.n, c.domainBits)
		if bits != c.bits || passes != c.passes {
			t.Errorf("n=%d %d-bit keys, %d-bit domain: lsbWidth = (%d bits, %d passes), want (%d, %d)",
				c.n, c.keyBits, c.domainBits, bits, passes, c.bits, c.passes)
		}
		if c.n > 1<<16 {
			continue
		}
		var got int
		if c.keyBits == 32 {
			got = lsbPassesOn[uint32](t, c.n, c.domainBits, 0)
		} else {
			got = lsbPassesOn[uint64](t, c.n, c.domainBits, 0)
		}
		if got != c.passes {
			t.Errorf("n=%d %d-bit keys, %d-bit domain: LSB ran %d passes, want %d",
				c.n, c.keyBits, c.domainBits, got, c.passes)
		}
	}
	// An explicit RadixBits wins: 5-bit digits over a 16-bit domain take
	// ceil(16/5) = 4 passes where the rule would take 2.
	if got := lsbPassesOn[uint32](t, 1<<16, 16, 5); got != 4 {
		t.Fatalf("explicit RadixBits 5 over a 16-bit domain should do 4 passes, did %d", got)
	}
}

// lsbPassesOn sorts n random keys of exactly domainBits bits with LSB
// (radixBits 0: the width rule) and returns the passes it ran, failing
// the test if the result is not a stable sort.
func lsbPassesOn[K kv.Key](t *testing.T, n, domainBits, radixBits int) int {
	t.Helper()
	keys := gen.Uniform[K](n, 0, uint64(n+domainBits))
	mask := K(1)<<(domainBits-1) | (K(1)<<(domainBits-1) - 1)
	for i := range keys {
		keys[i] &= mask
	}
	keys[0] |= K(1) << (domainBits - 1)
	vals := gen.RIDs[K](n)
	var st Stats
	LSB(keys, vals, make([]K, n), make([]K, n), Options{Threads: 1, RadixBits: radixBits, Stats: &st})
	for i := 1; i < n; i++ {
		if keys[i-1] > keys[i] || keys[i-1] == keys[i] && vals[i-1] > vals[i] {
			t.Fatalf("n=%d, %d-bit domain: LSB output is not stably sorted", n, domainBits)
		}
	}
	return st.Passes
}
