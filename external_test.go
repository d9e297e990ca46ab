package partsort

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
)

// extTestOpt forces the spill path at unit-test sizes.
func extTestOpt(t *testing.T) *SortOptions {
	return &SortOptions{
		TempDir:            t.TempDir(),
		SpillSegmentTuples: 1 << 12,
		SpillBucketBits:    3,
		SpillMergeWidth:    4,
		Threads:            2,
	}
}

// TestSortExternalForcedSpill sorts an input four times the configured
// memory budget through the spill path and checks the full contract:
// sorted, every value still attached to its key, spill stats populated,
// exactly one streaming formation pass, temp dir clean — and a second
// spill leaves the fd table and goroutine count at the first one's
// baseline.
func TestSortExternalForcedSpill(t *testing.T) {
	n := 1 << 16 // 1 MiB of pairs
	opt := extTestOpt(t)
	opt.MaxAuxBytes = 256 << 10 // input is 4x this budget
	ref := gen.Uniform[uint64](n, 0, 1)
	keys := append([]uint64(nil), ref...)
	vals := RIDs[uint64](n)

	st, err := SortExternal(keys, vals, opt)
	if err != nil {
		t.Fatalf("SortExternal: %v", err)
	}
	if !st.Spilled {
		t.Fatalf("expected spill at n=%d, budget=%d: %+v", n, opt.MaxAuxBytes, st)
	}
	checkSortedPermutation(t, keys, vals, ref)
	if st.SpillBytes == 0 || st.ReadBytes == 0 || st.RunsWritten == 0 {
		t.Fatalf("spill stats empty: %+v", st)
	}
	if want := int64(n) * 16; st.FormationBytes != want {
		t.Fatalf("formation wrote %d bytes, want one streaming pass of %d", st.FormationBytes, want)
	}
	checkSpillDirEmpty(t, opt.TempDir)

	// The fd baseline follows the first spill: the runtime's netpoller
	// descriptors are created on the first file I/O and stay open.
	baseFDs, base := openFDs(), runtime.NumGoroutine()
	copy(keys, ref)
	copy(vals, RIDs[uint64](n))
	if _, err := SortExternal(keys, vals, opt); err != nil {
		t.Fatalf("second SortExternal: %v", err)
	}
	checkSortedPermutation(t, keys, vals, ref)
	checkSpillDirEmpty(t, opt.TempDir)
	if fds := openFDs(); fds > baseFDs {
		t.Fatalf("fd leak: %d open, baseline %d", fds, baseFDs)
	}
	waitGoroutines(t, base)
}

// checkSpillDirEmpty fails unless dir has no entries left.
func checkSpillDirEmpty(t *testing.T, dir string) {
	t.Helper()
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("spill dir not cleaned: %d entries (%v)", len(ents), err)
	}
}

// openFDs counts the process's open file descriptors via procfs. Without
// /proc/self/fd it returns -1 every time, so baseline checks pass
// vacuously.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestSortExternalInMemory checks that small inputs under a roomy budget
// never touch disk, and still sort.
func TestSortExternalInMemory(t *testing.T) {
	n := 1 << 12
	keys := gen.Uniform[uint64](n, 1, 1)
	vals := RIDs[uint64](n)
	opt := &SortOptions{TempDir: t.TempDir()}
	st, err := SortExternal(keys, vals, opt)
	if err != nil {
		t.Fatalf("SortExternal: %v", err)
	}
	if st.Spilled {
		t.Fatalf("small input spilled: %+v", st)
	}
	if !IsSorted(keys) {
		t.Fatal("output not sorted")
	}
	checkSpillDirEmpty(t, opt.TempDir)
}

// midRunCancel is a context that is already cancelled but whose first
// Err call reports nil: the entry check lets the run start, and the
// cancellation surfaces at the first in-run checkpoint that polls Done.
// spilling records whether the spill files existed by then.
type midRunCancel struct {
	context.Context
	dir      string
	calls    atomic.Int32
	spilling atomic.Bool
}

func (c *midRunCancel) Err() error {
	if c.calls.Add(1) == 1 {
		return nil
	}
	if ents, err := os.ReadDir(c.dir); err == nil && len(ents) > 0 {
		c.spilling.Store(true)
	}
	return c.Context.Err()
}

// TestSortExternalCancel checks cooperative cancellation from inside a
// spill: ctx.Err() comes back, the input is a permutation, and no temp
// files remain.
func TestSortExternalCancel(t *testing.T) {
	n := 1 << 15
	opt := extTestOpt(t)
	keys := gen.Uniform[uint64](n, 0, 2)
	vals := RIDs[uint64](n)
	sumK := append([]uint64(nil), keys...)
	sumV := append([]uint64(nil), vals...)
	done, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := &midRunCancel{Context: done, dir: opt.TempDir}
	_, err := SortExternalCtx(ctx, keys, vals, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !ctx.spilling.Load() {
		t.Fatal("cancellation did not surface inside the spill")
	}
	if !SameMultiset(keys, vals, sumK, sumV) {
		t.Fatal("input not a permutation after cancellation")
	}
	checkSpillDirEmpty(t, opt.TempDir)
}

// TestSortExternalArgErrors checks the validation surface.
func TestSortExternalArgErrors(t *testing.T) {
	keys := []uint64{1, 2}
	var ae *ArgError
	if _, err := SortExternal(keys, []uint64{1}, nil); !errors.As(err, &ae) || ae.Field != "vals" {
		t.Fatalf("mismatched vals: %v", err)
	}
	bad := []SortOptions{
		{SpillSegmentTuples: -1},
		{SpillBucketBits: 17},
		{SpillMergeWidth: -2},
		{MaxSpillBytes: -5},
	}
	for _, opt := range bad {
		opt := opt
		if _, err := SortExternal(keys, []uint64{1, 2}, &opt); !errors.As(err, &ae) {
			t.Fatalf("opt %+v: err = %v, want *ArgError", opt, err)
		}
	}
}

// TestSortExternalSpillBudget checks disk-budget refusal: *SpillError
// unwrapping ErrSpillBudget, input intact, nothing leaked.
func TestSortExternalSpillBudget(t *testing.T) {
	n := 1 << 15
	opt := extTestOpt(t)
	opt.MaxSpillBytes = 8 << 10
	keys := gen.Uniform[uint64](n, 0, 3)
	vals := RIDs[uint64](n)
	sumK := append([]uint64(nil), keys...)
	sumV := append([]uint64(nil), vals...)
	_, err := SortExternal(keys, vals, opt)
	var se *SpillError
	if !errors.As(err, &se) || !errors.Is(err, ErrSpillBudget) {
		t.Fatalf("err = %v, want *SpillError wrapping ErrSpillBudget", err)
	}
	if !SameMultiset(keys, vals, sumK, sumV) {
		t.Fatal("input changed on budget refusal")
	}
	checkSpillDirEmpty(t, opt.TempDir)
}

// TestSortExternalFaultInjection checks that injected faults in both
// extsort sites surface as *InternalError wrapping fault.Injected, with
// the input a permutation, the resource ledger drained, no temp files,
// and the fd table and goroutine count back at the baseline a clean
// spill settled.
func TestSortExternalFaultInjection(t *testing.T) {
	n := 1 << 15
	opt := extTestOpt(t)
	keys := gen.Uniform[uint64](n, 0, 4)
	vals := RIDs[uint64](n)
	sumK := append([]uint64(nil), keys...)
	sumV := append([]uint64(nil), vals...)
	if _, err := SortExternal(keys, vals, opt); err != nil {
		t.Fatalf("clean spill: %v", err)
	}
	baseFDs, base := openFDs(), runtime.NumGoroutine()
	defer fault.Disable()
	for _, c := range []struct {
		site  fault.Site
		after int
	}{{fault.SiteExtSpill, 10}, {fault.SiteExtMerge, 0}} {
		fault.Enable(c.site, c.after)
		_, err := SortExternal(keys, vals, opt)
		fault.Disable()
		var ie *InternalError
		if !errors.As(err, &ie) {
			t.Fatalf("%s: err = %v, want *InternalError", c.site, err)
		}
		if !errors.Is(err, fault.Injected{Site: c.site}) {
			t.Fatalf("%s: err does not wrap the injected site: %v", c.site, err)
		}
		if !SameMultiset(keys, vals, sumK, sumV) {
			t.Fatalf("%s: input not a permutation after containment", c.site)
		}
		if err := fault.CheckResources(); err != nil {
			t.Fatalf("%s: resource ledger: %v", c.site, err)
		}
		checkSpillDirEmpty(t, opt.TempDir)
		if fds := openFDs(); fds > baseFDs {
			t.Fatalf("%s: fd leak: %d open, baseline %d", c.site, fds, baseFDs)
		}
		waitGoroutines(t, base)
	}
}

// TestSortExternalWorkspace runs repeated spills through one workspace
// and checks steady state allocates nothing from the OS pools.
func TestSortExternalWorkspace(t *testing.T) {
	w := NewWorkspace()
	defer w.Close()
	opt := extTestOpt(t)
	opt.Workspace = w
	n := 1 << 15
	keys := gen.Uniform[uint64](n, 0, 5)
	vals := RIDs[uint64](n)
	if _, err := SortExternal(keys, vals, opt); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	for i := 0; i < 3; i++ {
		rand.New(rand.NewSource(int64(i))).Shuffle(n, func(a, b int) {
			keys[a], keys[b] = keys[b], keys[a]
			vals[a], vals[b] = vals[b], vals[a]
		})
		st, err := SortExternal(keys, vals, opt)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !st.Spilled || !IsSorted(keys) {
			t.Fatalf("run %d: spilled=%v sorted=%v", i, st.Spilled, IsSorted(keys))
		}
	}
}

// TestPlanSpill checks the planner's decision boundary and that the
// planned footprint respects the budget it was given.
func TestPlanSpill(t *testing.T) {
	budget := int64(1 << 20)
	small := PlanSpill(1<<10, 64, budget)
	if small.Spill {
		t.Fatalf("1K tuples should fit a 1 MiB budget: %+v", small)
	}
	big := PlanSpill(1<<24, 64, budget)
	if !big.Spill {
		t.Fatalf("16M tuples must spill under a 1 MiB budget: %+v", big)
	}
	if big.MemBytes > budget+budget/2 {
		t.Fatalf("planned footprint %d far exceeds budget %d", big.MemBytes, budget)
	}
	if big.SegmentTuples < 1 || big.MergeWidth < 2 || big.BucketBits < 1 {
		t.Fatalf("degenerate plan: %+v", big)
	}
}
