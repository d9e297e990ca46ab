package sortalgo

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/simd"
)

// TestCombLanesVectorEquivalence32 shows the explicit-vector formulation
// (min/max + payload blends, the paper's instruction sequence) computes
// exactly what the scalar-lane loop computes.
func TestCombLanesVectorEquivalence32(t *testing.T) {
	f := func(seed uint64, sz uint16) bool {
		nvec := int(sz%512) + 2
		n := nvec * 4
		keys := gen.Uniform[uint32](n, 0, seed)
		vals := gen.RIDs[uint32](n)

		ak := append([]uint32(nil), keys...)
		av := append([]uint32(nil), vals...)
		combLanes(ak, av, nvec, 4)

		bk := append([]uint32(nil), keys...)
		bv := append([]uint32(nil), vals...)
		combLanes32(bk, bv, nvec)

		for i := range ak {
			if ak[i] != bk[i] || av[i] != bv[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCombLanesVectorEquivalence64(t *testing.T) {
	f := func(seed uint64, sz uint16) bool {
		nvec := int(sz%512) + 2
		n := nvec * 2
		keys := gen.Uniform[uint64](n, 0, seed)
		vals := gen.RIDs[uint64](n)

		ak := append([]uint64(nil), keys...)
		av := append([]uint64(nil), vals...)
		combLanes(ak, av, nvec, 2)

		bk := append([]uint64(nil), keys...)
		bv := append([]uint64(nil), vals...)
		combLanes64(bk, bv, nvec)

		for i := range ak {
			if ak[i] != bk[i] || av[i] != bv[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// testCombLanesBranchFreeAgreement asserts the unrolled branch-free lane
// kernels (combLanes2/combLanes4) match combLanesGeneric byte for byte —
// same passes, same exchanges — for one key width and lane count.
func testCombLanesBranchFreeAgreement[K interface{ ~uint32 | ~uint64 }](t *testing.T, w int) {
	t.Helper()
	f := func(seed uint64, sz uint16) bool {
		nvec := int(sz%512) + 2
		n := nvec * w
		keys := gen.Uniform[K](n, 0, seed)
		vals := gen.RIDs[K](n)

		ak := append([]K(nil), keys...)
		av := append([]K(nil), vals...)
		switch w {
		case 2:
			combLanes2(ak, av, nvec)
		case 4:
			combLanes4(ak, av, nvec)
		}

		bk := append([]K(nil), keys...)
		bv := append([]K(nil), vals...)
		combLanesGeneric(bk, bv, nvec, w)

		for i := range ak {
			if ak[i] != bk[i] || av[i] != bv[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The dispatcher pairs W=2 with 64-bit keys and W=4 with 32-bit keys, but
// the kernels are width-generic; test both widths at both lane counts so
// laneMask is exercised across the full domain.
func TestCombLanes2Agreement32(t *testing.T) { testCombLanesBranchFreeAgreement[uint32](t, 2) }
func TestCombLanes2Agreement64(t *testing.T) { testCombLanesBranchFreeAgreement[uint64](t, 2) }
func TestCombLanes4Agreement32(t *testing.T) { testCombLanesBranchFreeAgreement[uint32](t, 4) }
func TestCombLanes4Agreement64(t *testing.T) { testCombLanesBranchFreeAgreement[uint64](t, 4) }

// TestCombLanesSortsEachLane verifies the post-comb invariant the W-way
// merge depends on: every lane is independently sorted.
func TestCombLanesSortsEachLane(t *testing.T) {
	const nvec, w = 257, 4
	keys := gen.Uniform[uint32](nvec*w, 0, 3)
	vals := gen.RIDs[uint32](nvec * w)
	combLanes32(keys, vals, nvec)
	for l := 0; l < w; l++ {
		for v := 1; v < nvec; v++ {
			if keys[(v-1)*w+l] > keys[v*w+l] {
				t.Fatalf("lane %d unsorted at vector %d", l, v)
			}
		}
	}
}

// combLanes32 comb-sorts the W=4 lanes of the padded vector array.
func combLanes32(pk, pv []uint32, nvec int) {
	gap := nvec
	for {
		gap = combGap(gap)
		swapped := false
		limit := (nvec - gap) * 4
		for i := 0; i < limit; i += 4 {
			j := i + gap*4
			x := simd.Load4x32(pk[i : i+4])
			y := simd.Load4x32(pk[j : j+4])
			m := x.CmpGt(y) // lanes where the pair is out of order
			if m.Movemask() == 0 {
				continue
			}
			swapped = true
			x.Min(y).Store(pk[i : i+4])
			x.Max(y).Store(pk[j : j+4])
			vx := simd.Load4x32(pv[i : i+4])
			vy := simd.Load4x32(pv[j : j+4])
			vx.Blend(vy, m).Store(pv[i : i+4])
			vy.Blend(vx, m).Store(pv[j : j+4])
		}
		if gap == 1 && !swapped {
			return
		}
	}
}

// combLanes64 comb-sorts the W=2 lanes of the padded vector array.
func combLanes64(pk, pv []uint64, nvec int) {
	gap := nvec
	for {
		gap = combGap(gap)
		swapped := false
		limit := (nvec - gap) * 2
		for i := 0; i < limit; i += 2 {
			j := i + gap*2
			x := simd.Load2x64(pk[i : i+2])
			y := simd.Load2x64(pk[j : j+2])
			m := x.CmpGt(y)
			if m.Movemask() == 0 {
				continue
			}
			swapped = true
			x.Min(y).Store(pk[i : i+2])
			x.Max(y).Store(pk[j : j+2])
			vx := simd.Load2x64(pv[i : i+2])
			vy := simd.Load2x64(pv[j : j+2])
			vx.Blend(vy, m).Store(pv[i : i+2])
			vy.Blend(vx, m).Store(pv[j : j+2])
		}
		if gap == 1 && !swapped {
			return
		}
	}
}
