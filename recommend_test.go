package partsort

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/kv"
)

func TestRecommendMatchesPaperConclusion(t *testing.T) {
	cases := []struct {
		name string
		w    Workload
		want Algorithm
	}{
		{"dense 32-bit", Workload{N: 1 << 30, DomainBits: 30, KeyBits: 32}, LSB},
		{"compressed dictionary codes", Workload{N: 1 << 20, DomainBits: 18, KeyBits: 32}, LSB},
		{"sparse 64-bit", Workload{N: 1 << 30, DomainBits: 64, KeyBits: 64}, MSB},
		{"sparse 32-bit small n", Workload{N: 1 << 16, DomainBits: 32, KeyBits: 32}, MSB},
		{"space tight", Workload{N: 1 << 30, DomainBits: 30, KeyBits: 32, SpaceTight: true}, MSB},
		{"heavy skew", Workload{N: 1 << 30, DomainBits: 30, KeyBits: 32, HeavySkew: true}, CMP},
		{"stability wins over everything", Workload{N: 1 << 30, DomainBits: 64, KeyBits: 64, SpaceTight: true, NeedStable: true}, LSB},
		{"unknown domain 64-bit", Workload{N: 1 << 20, KeyBits: 64}, MSB},
	}
	for _, c := range cases {
		if got := Recommend(c.w); got != c.want {
			t.Errorf("%s: Recommend = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	if LSB.String() != "LSB" || MSB.String() != "MSB" || CMP.String() != "CMP" || Algorithm(9).String() != "unknown" {
		t.Fatal("algorithm names wrong")
	}
}

func TestAutoSort(t *testing.T) {
	// Dense domain: should pick LSB.
	n := 1 << 14
	keys := gen.Dense[uint32](n, 3)
	vals := RIDs[uint32](n)
	if got := Sort(keys, vals, false, false, &SortOptions{Threads: 2}); got != LSB {
		t.Fatalf("dense input picked %v", got)
	}
	if !IsSorted(keys) {
		t.Fatal("not sorted")
	}
	// Sparse domain: MSB.
	keys = gen.Uniform[uint32](n, 0, 5)
	vals = RIDs[uint32](n)
	if got := Sort(keys, vals, false, false, &SortOptions{Threads: 2}); got != MSB {
		t.Fatalf("sparse input picked %v", got)
	}
	if !IsSorted(keys) {
		t.Fatal("not sorted")
	}
	// Stability requirement: LSB regardless.
	keys = gen.Uniform[uint32](n, 0, 7)
	vals = RIDs[uint32](n)
	if got := Sort(keys, vals, true, false, &SortOptions{Threads: 2}); got != LSB {
		t.Fatalf("stable requirement picked %v", got)
	}
	if !IsStableSorted(keys, vals) {
		t.Fatal("not stable")
	}
}

// TestRecommendValidatesWorkload pins the validation the tuner PR added:
// Recommend used to silently accept empty problems and key widths like
// 17 bits and hand back a recommendation computed from garbage.
func TestRecommendValidatesWorkload(t *testing.T) {
	bad := []Workload{
		{N: 0, KeyBits: 32},
		{N: -5, KeyBits: 64},
		{N: 100, KeyBits: 17},
		{N: 100, KeyBits: 64, DomainBits: 65},
		{N: 100, KeyBits: 64, DomainBits: -1},
	}
	for _, w := range bad {
		func() {
			defer func() {
				r := recover()
				if _, ok := r.(*ArgError); !ok {
					t.Fatalf("Recommend(%+v) did not panic *ArgError (got %v)", w, r)
				}
			}()
			Recommend(w)
		}()
	}
	// Boundary cases stay accepted: KeyBits 0 means unknown, DomainBits
	// 0 and 64 are the documented ends of the range.
	for _, w := range []Workload{
		{N: 1},
		{N: 1 << 20, KeyBits: 32, DomainBits: 0},
		{N: 1 << 20, KeyBits: 64, DomainBits: 64},
	} {
		Recommend(w)
	}
}

// TestSortEmptyInput: empty problems are trivially sorted; Sort must not
// route them into Recommend's N >= 1 validation.
func TestSortEmptyInput(t *testing.T) {
	if got := Sort([]uint32{}, []uint32{}, false, false, nil); got != LSB {
		t.Fatalf("empty Sort returned %v", got)
	}
	if got := Sort([]uint64{}, []uint64{}, true, true, &SortOptions{}); got != LSB {
		t.Fatalf("empty stable, space-tight Sort returned %v", got)
	}
}

// TestDefaultWidthMatchesExplicit: on distinct keys (a permutation, so the
// sorted order of both columns is unique) every algorithm must produce
// bit-for-bit the same output at the default radix width as with an
// explicit 8-bit width. At 2^15 64-bit keys LSB's width rule picks 10-bit
// digits; MSB and CMP ignore RadixBits.
func TestDefaultWidthMatchesExplicit(t *testing.T) {
	n := 1 << 15
	baseKeys := gen.Permutation[uint64](n, 9)
	baseVals := RIDs[uint64](n)
	algos := []struct {
		name string
		run  func(keys, vals []uint64, opt *SortOptions)
	}{
		{"LSB", SortLSB[uint64]},
		{"MSB", SortMSB[uint64]},
		{"CMP", SortCMP[uint64]},
	}
	for _, a := range algos {
		t.Run(a.name, func(t *testing.T) {
			ek, ev := slices.Clone(baseKeys), slices.Clone(baseVals)
			a.run(ek, ev, &SortOptions{RadixBits: 8})
			dk, dv := slices.Clone(baseKeys), slices.Clone(baseVals)
			a.run(dk, dv, &SortOptions{})
			if !slices.Equal(ek, dk) || !slices.Equal(ev, dv) {
				t.Fatal("default-width output differs from the explicit 8-bit output")
			}
		})
	}
}

// TestDefaultWidthStableAndSkewed covers skewed, duplicate-heavy input at
// the default width: LSB keeps its stability contract, and Sort returns
// a sorted permutation with the algorithm Recommend picks.
func TestDefaultWidthStableAndSkewed(t *testing.T) {
	n := 1 << 15
	keys := gen.ZipfKeys[uint64](n, 1<<30, 1.2, 4)
	vals := RIDs[uint64](n)
	origK, origV := slices.Clone(keys), slices.Clone(vals)

	sk, sv := slices.Clone(keys), slices.Clone(vals)
	SortLSB(sk, sv, &SortOptions{})
	if !IsStableSorted(sk, sv) {
		t.Fatal("default-width LSB lost stability")
	}

	want := Recommend(Workload{N: n, DomainBits: kv.DomainBits(keys), KeyBits: 64})
	if got := Sort(keys, vals, false, false, nil); got != want {
		t.Fatalf("Sort ran %v, Recommend picks %v", got, want)
	}
	if !IsSorted(keys) || !SameMultiset(keys, vals, origK, origV) {
		t.Fatal("Sort did not produce a sorted permutation")
	}
}
