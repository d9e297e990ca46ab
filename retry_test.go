package partsort

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/gen"
)

// TestRetryPolicyValidation drives SortCtx through every invalid
// SortOptions.Retry field and the invalid algorithm value: each must come
// back as an *ArgError naming the offending field, before any sorting
// happens.
func TestRetryPolicyValidation(t *testing.T) {
	keys := []uint64{3, 1, 2}
	vals := []uint64{0, 1, 2}
	cases := []struct {
		name  string
		algo  Algorithm
		pol   *RetryPolicy
		field string
	}{
		{"negative-attempts-per-stage", LSB, &RetryPolicy{AttemptsPerStage: -1}, "Retry.AttemptsPerStage"},
		{"negative-max-attempts", LSB, &RetryPolicy{MaxAttempts: -3}, "Retry.MaxAttempts"},
		{"negative-initial-backoff", LSB, &RetryPolicy{InitialBackoff: -time.Millisecond}, "Retry.InitialBackoff"},
		{"negative-max-backoff", LSB, &RetryPolicy{MaxBackoff: -1}, "Retry.MaxBackoff"},
		{"shrinking-multiplier", LSB, &RetryPolicy{Multiplier: 0.5}, "Retry.Multiplier"},
		{"bad-algorithm", Algorithm(42), nil, "algo"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := SortCtx(context.Background(), c.algo, keys, vals, &SortOptions{Retry: c.pol})
			var ae *ArgError
			if !errors.As(err, &ae) {
				t.Fatalf("err = %v (%T), want *ArgError", err, err)
			}
			if ae.Field != c.field {
				t.Fatalf("ArgError.Field = %q, want %q", ae.Field, c.field)
			}
		})
	}
	// Legal zero-ish policies must sort: nil policy (one attempt),
	// zero-value policy, nil classifier, zero backoff (selects defaults).
	for _, pol := range []*RetryPolicy{nil, {}, {Classify: nil, InitialBackoff: 0, MaxBackoff: 0}} {
		k := []uint64{3, 1, 2}
		v := []uint64{0, 1, 2}
		if err := SortCtx(context.Background(), LSB, k, v, &SortOptions{Retry: pol}); err != nil {
			t.Fatalf("valid policy %+v: %v", pol, err)
		}
		if !sort.SliceIsSorted(k, func(i, j int) bool { return k[i] < k[j] }) {
			t.Fatal("not sorted")
		}
	}
}

// TestClassifyError pins the default classifier's taxonomy.
func TestClassifyError(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want RetryClass
	}{
		{"nil", nil, RetryFatal},
		{"arg", &ArgError{Func: "f", Field: "x", Reason: "r"}, RetryFatal},
		{"resource", &ResourceError{Op: "SortCtx"}, RetryDegrade},
		{"internal", &InternalError{Op: "SortCtx", Value: "boom"}, RetryTransient},
		{"canceled", context.Canceled, RetryFatal},
		{"deadline", context.DeadlineExceeded, RetryFatal},
		{"unknown", errors.New("mystery"), RetryFatal},
	}
	for _, c := range cases {
		if got := ClassifyError(c.err); got != c.want {
			t.Errorf("ClassifyError(%s) = %v, want %v", c.name, got, c.want)
		}
	}
	for _, c := range []struct {
		cl   RetryClass
		want string
	}{{RetryFatal, "fatal"}, {RetryTransient, "transient"}, {RetryDegrade, "degrade"}, {RetryClass(9), "unknown"}} {
		if got := c.cl.String(); got != c.want {
			t.Errorf("RetryClass(%d).String() = %q, want %q", int(c.cl), got, c.want)
		}
	}
}

// checkSortedPermutation asserts keys are sorted and (keys[i], vals[i])
// pairs are a permutation of the identity-payload input.
func checkSortedPermutation(t *testing.T, keys, vals []uint64, ref []uint64) {
	t.Helper()
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("keys not sorted")
	}
	seen := make([]bool, len(vals))
	for i, v := range vals {
		if v >= uint64(len(vals)) || seen[v] {
			t.Fatalf("vals is not a permutation at %d: %d", i, v)
		}
		seen[v] = true
		if keys[i] != ref[v] {
			t.Fatalf("pair broken at %d: key %d, rid %d maps to %d", i, keys[i], v, ref[v])
		}
	}
}

// TestResilientRetriesTransient arms a single-shot fault: the first
// attempt fails with a contained panic, the in-place retry of the same
// plan succeeds, and the stats record exactly two attempts with a
// positive backoff.
func TestResilientRetriesTransient(t *testing.T) {
	defer fault.Disable()
	n := 1 << 14
	ref := gen.Uniform[uint64](n, 0, 7)
	keys := append([]uint64(nil), ref...)
	vals := RIDs[uint64](n)

	fault.Enable(fault.SiteLSBPass, 0)
	var st RetryStats
	pol := &RetryPolicy{InitialBackoff: time.Microsecond, Stats: &st}
	err := SortCtx(context.Background(), LSB, keys, vals, &SortOptions{Retry: pol})
	fault.Disable()
	if err != nil {
		t.Fatalf("supervised sort failed: %v", err)
	}
	if st.Attempts != 2 || st.Stage != 0 || st.Degraded {
		t.Fatalf("stats = %+v, want 2 attempts on stage 0", st)
	}
	if st.Backoff <= 0 {
		t.Fatalf("no backoff recorded: %+v", st)
	}
	checkSortedPermutation(t, keys, vals, ref)
}

// TestResilientFallbackChain exhausts stages 0 and 1 with a repeat-fire
// chaos schedule on the LSB pass site (budget 4 = two attempts per
// stage) and proves the supervisor lands on the stage-2 in-place MSB
// sort, which has no LSB site to trip.
func TestResilientFallbackChain(t *testing.T) {
	defer fault.Disable()
	n := 1 << 14
	ref := gen.Uniform[uint64](n, 0, 11)
	keys := append([]uint64(nil), ref...)
	vals := RIDs[uint64](n)

	fault.Arm(fault.NewSchedule(1, map[fault.Site]fault.SiteConfig{
		fault.SiteLSBPass: {Prob: 1, Budget: 4},
	}))
	var st RetryStats
	pol := &RetryPolicy{InitialBackoff: time.Microsecond, Stats: &st}
	err := SortCtx(context.Background(), LSB, keys, vals, &SortOptions{Retry: pol})
	fault.Disable()
	if err != nil {
		t.Fatalf("supervised sort failed: %v", err)
	}
	if st.Attempts != 5 || st.Stage != 2 {
		t.Fatalf("stats = %+v, want 5 attempts ending on stage 2", st)
	}
	checkSortedPermutation(t, keys, vals, ref)
}

// TestResilientDegradeOnResourceError squeezes the auxiliary budget so
// the LSB plan (which needs linear tmp columns) fails with a
// *ResourceError, and proves the supervisor skips straight to the
// in-place stage instead of burning retries on a plan that cannot fit.
func TestResilientDegradeOnResourceError(t *testing.T) {
	n := 1 << 16
	ref := gen.Uniform[uint64](n, 0, 13)
	keys := append([]uint64(nil), ref...)
	vals := RIDs[uint64](n)

	var st RetryStats
	pol := &RetryPolicy{InitialBackoff: time.Microsecond, Stats: &st}
	// 256 KiB: far below the ~1 MiB of tmp columns LSB wants for 64K
	// 64-bit pairs, comfortably above the in-place MSB histograms.
	err := SortCtx(context.Background(), LSB, keys, vals, &SortOptions{MaxAuxBytes: 256 << 10, Retry: pol})
	if err != nil {
		t.Fatalf("supervised sort failed: %v", err)
	}
	if !st.Degraded || st.Stage != 2 {
		t.Fatalf("stats = %+v, want degraded to stage 2", st)
	}
	if st.Attempts != 2 {
		t.Fatalf("stats = %+v, want exactly one degraded re-attempt", st)
	}
	checkSortedPermutation(t, keys, vals, ref)

	// The same squeeze under NoFallback must surface the *ResourceError.
	keys2 := append([]uint64(nil), ref...)
	vals2 := RIDs[uint64](n)
	err = SortCtx(context.Background(), LSB, keys2, vals2, &SortOptions{MaxAuxBytes: 256 << 10,
		Retry: &RetryPolicy{NoFallback: true, InitialBackoff: time.Microsecond}})
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("NoFallback err = %v (%T), want *ResourceError", err, err)
	}

	// Pressure lane: a budget of n bytes, orders of magnitude below the
	// 16n of tmp columns. One unsupervised attempt reports the budget it
	// hit; the supervised run degrades to an in-place stage-2 success.
	tiny := int64(n)
	keys3 := append([]uint64(nil), ref...)
	vals3 := RIDs[uint64](n)
	err = SortCtx(context.Background(), LSB, keys3, vals3, &SortOptions{Threads: 4, MaxAuxBytes: tiny})
	if !errors.As(err, &re) {
		t.Fatalf("unsupervised err = %v (%T), want *ResourceError", err, err)
	}
	if re.Budget != tiny {
		t.Fatalf("ResourceError.Budget = %d, want %d", re.Budget, tiny)
	}
	st = RetryStats{}
	err = SortCtx(context.Background(), LSB, keys3, vals3, &SortOptions{Threads: 4, MaxAuxBytes: tiny, Retry: pol})
	if err != nil {
		t.Fatalf("supervised sort at %d bytes failed: %v", tiny, err)
	}
	if !st.Degraded || st.Stage != 2 {
		t.Fatalf("stats at %d bytes = %+v, want degraded to stage 2", tiny, st)
	}
	checkSortedPermutation(t, keys3, vals3, ref)
}

// TestResilientNoFallback pins the confinement contract: a persistent
// transient failure under NoFallback returns the *InternalError after
// AttemptsPerStage tries, never touching another stage.
func TestResilientNoFallback(t *testing.T) {
	defer fault.Disable()
	n := 1 << 13
	keys := gen.Uniform[uint64](n, 0, 17)
	vals := RIDs[uint64](n)

	fault.Arm(fault.NewSchedule(2, map[fault.Site]fault.SiteConfig{
		fault.SiteLSBPass: {Prob: 1}, // unlimited budget: every attempt dies
	}))
	var st RetryStats
	err := SortCtx(context.Background(), LSB, keys, vals, &SortOptions{
		Retry: &RetryPolicy{NoFallback: true, InitialBackoff: time.Microsecond, Stats: &st}})
	fault.Disable()
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InternalError", err, err)
	}
	if st.Attempts != 2 || st.Stage != 0 {
		t.Fatalf("stats = %+v, want 2 attempts confined to stage 0", st)
	}
}

// TestResilientMaxAttempts caps the total attempt budget below the
// chain's natural capacity and checks the supervisor stops there.
func TestResilientMaxAttempts(t *testing.T) {
	defer fault.Disable()
	n := 1 << 13
	keys := gen.Uniform[uint64](n, 0, 19)
	vals := RIDs[uint64](n)

	fault.Arm(fault.NewSchedule(3, map[fault.Site]fault.SiteConfig{
		fault.SiteLSBPass:    {Prob: 1},
		fault.SiteMSBRecurse: {Prob: 1},
	}))
	var st RetryStats
	err := SortCtx(context.Background(), LSB, keys, vals, &SortOptions{
		Retry: &RetryPolicy{MaxAttempts: 3, InitialBackoff: time.Microsecond, Stats: &st}})
	fault.Disable()
	if err == nil {
		t.Fatal("every site armed with prob 1: the sort cannot have succeeded")
	}
	if st.Attempts != 3 {
		t.Fatalf("stats = %+v, want the MaxAttempts=3 cap honoured", st)
	}
}

// TestResilientContextFatal: a cancelled context is never retried, and a
// deadline too short for the backoff stops the supervisor early.
func TestResilientContextFatal(t *testing.T) {
	defer fault.Disable()
	n := 1 << 13
	keys := gen.Uniform[uint64](n, 0, 23)
	vals := RIDs[uint64](n)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var st RetryStats
	err := SortCtx(ctx, LSB, keys, vals, &SortOptions{Retry: &RetryPolicy{Stats: &st}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Attempts != 1 {
		t.Fatalf("cancelled context was retried: %+v", st)
	}

	// A deadline shorter than the first backoff: the supervisor must not
	// sleep past it; the original failure surfaces.
	fault.Arm(fault.NewSchedule(4, map[fault.Site]fault.SiteConfig{
		fault.SiteLSBPass: {Prob: 1},
	}))
	dctx, dcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer dcancel()
	err = SortCtx(dctx, LSB, keys, vals, &SortOptions{
		Retry: &RetryPolicy{InitialBackoff: time.Hour, MaxBackoff: time.Hour}})
	fault.Disable()
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want the pre-deadline *InternalError", err, err)
	}
}

// TestResilientAllAlgorithms runs one single-shot-fault recovery per
// algorithm and checks goroutine hygiene across the retries.
func TestResilientAllAlgorithms(t *testing.T) {
	defer fault.Disable()
	n := 1 << 14
	cases := []struct {
		algo Algorithm
		site fault.Site
	}{
		{LSB, fault.SiteLSBPass},
		{MSB, fault.SiteMSBRecurse},
		{CMP, fault.SiteCMPPass},
	}
	for _, c := range cases {
		t.Run(c.algo.String(), func(t *testing.T) {
			ref := gen.Uniform[uint64](n, 0, 29)
			keys := append([]uint64(nil), ref...)
			vals := RIDs[uint64](n)
			base := runtime.NumGoroutine()
			fault.Enable(c.site, 0)
			err := SortCtx(context.Background(), c.algo, keys, vals, &SortOptions{
				Threads: 4, Retry: &RetryPolicy{InitialBackoff: time.Microsecond}})
			fault.Disable()
			if err != nil {
				t.Fatalf("supervised %v failed: %v", c.algo, err)
			}
			checkSortedPermutation(t, keys, vals, ref)
			waitGoroutines(t, base)
		})
	}
}

// sitesFor returns the injection sites a chaos lane's sorts (including
// the supervisor's MSB fallback stage) can reach, so schedules arm sites
// that actually fire.
func sitesFor(algo Algorithm) []fault.Site {
	switch algo {
	case LSB:
		return []fault.Site{fault.SiteLSBPass, fault.SiteWorkerStart, fault.SiteMSBRecurse}
	case MSB:
		return []fault.Site{fault.SiteMSBRecurse, fault.SiteWorkerStart, fault.SiteBlockPermute}
	default:
		return []fault.Site{fault.SiteCMPPass, fault.SiteWorkerStart, fault.SiteMSBRecurse}
	}
}

// scheduleFor builds the i-th chaos schedule of a lane: the fire
// probability and per-site budget cycle through mild, aggressive and
// certain-death configurations so the sweep exercises clean successes,
// retried successes, fallback-chain degradations and classified failures.
func scheduleFor(seed uint64, algo Algorithm, i int) *fault.Schedule {
	probs := []float64{0.02, 0.2, 1.0}
	cfg := map[fault.Site]fault.SiteConfig{}
	for _, s := range sitesFor(algo) {
		cfg[s] = fault.SiteConfig{
			Prob:   probs[i%len(probs)],
			Budget: 1 + i%4, // bounded chaos: the supervisor can outlast it
		}
	}
	if i%7 == 6 {
		// Every seventh schedule is unbounded certain death on one site:
		// the supervised run must fail cleanly, not hang or crash.
		cfg[sitesFor(algo)[0]] = fault.SiteConfig{Prob: 1}
	}
	return fault.NewSchedule(seed, cfg)
}

// TestResilientChaosMatrix drives seeded chaos schedules against the
// supervisor over {LSB, MSB, CMP} × {workspace, none}: 240 schedules (24
// under -short). Every run must end in a supervised success (sorted) or a
// cleanly classified *InternalError/*ResourceError, leave the columns a
// permutation of the input, leak no goroutines and no workspace bytes,
// and log only events the schedule's pure decision function agrees with.
// Single-threaded runs (every even schedule) replay from the same seed
// and must produce a byte-identical event log.
func TestResilientChaosMatrix(t *testing.T) {
	defer fault.Disable()
	schedules := 240
	if testing.Short() {
		schedules = 24
	}
	const n, threads = 1 << 15, 4
	algos := []Algorithm{LSB, MSB, CMP}
	perLane := schedules / (2 * len(algos))
	if total := 2 * len(algos) * perLane; !testing.Short() && total < 200 {
		t.Fatalf("only %d schedules; the full sweep needs at least 200", total)
	}
	ref := gen.Uniform[uint64](n, 0, 97)
	rids := RIDs[uint64](n)
	keys := make([]uint64, n)
	vals := make([]uint64, n)

	var clean, retried, failed int
	lane := 0
	for _, algo := range algos {
		for _, withWS := range []bool{false, true} {
			var w *Workspace
			if withWS {
				w = NewWorkspace()
				defer w.Close()
				// Prime the pool so parked workers join the goroutine baseline.
				copy(keys, ref)
				copy(vals, rids)
				if err := SortCtx(context.Background(), LSB, keys, vals, &SortOptions{Threads: threads, Workspace: w}); err != nil {
					t.Fatalf("%v: workspace warm-up: %v", algo, err)
				}
			}
			run := func(name string, seed uint64, i, thr int) []fault.Event {
				defer func() {
					if t.Failed() {
						t.Logf("failing run: %s", name) // replays it from its seed
					}
				}()
				copy(keys, ref)
				copy(vals, rids)
				base := runtime.NumGoroutine()
				sched := scheduleFor(seed, algo, i)
				fault.Arm(sched)
				var st RetryStats
				pol := &RetryPolicy{
					InitialBackoff: 50 * time.Microsecond,
					MaxBackoff:     200 * time.Microsecond,
					JitterSeed:     seed,
					Stats:          &st,
				}
				err := SortCtx(context.Background(), algo, keys, vals, &SortOptions{Threads: thr, Workspace: w, Retry: pol})
				fault.Disable()
				switch {
				case err == nil && st.Attempts == 1:
					clean++
				case err == nil:
					retried++
				default:
					var ie *InternalError
					var re *ResourceError
					if !errors.As(err, &ie) && !errors.As(err, &re) {
						t.Fatalf("unclassified error %v (%T)", err, err)
					}
					failed++
				}
				if err == nil {
					checkSortedPermutation(t, keys, vals, ref)
				} else if !SameMultiset(ref, rids, keys, vals) {
					t.Fatalf("keys/vals are not a permutation of the input (err=%v)", err)
				}
				waitGoroutines(t, base)
				if w != nil {
					if b := w.AuxBytes(); b != 0 {
						t.Fatalf("%d workspace bytes leaked after the run", b)
					}
				}
				log := sched.Events()
				for _, ev := range log {
					if !sched.WouldFire(ev.Site, ev.Hit) {
						t.Fatalf("logged event %+v contradicts the decision function", ev)
					}
				}
				return log
			}
			for i := 0; i < perLane; i++ {
				seed := 1 + uint64(lane)*1_000_003 + uint64(i)
				thr := threads
				if i%2 == 0 {
					thr = 1
				}
				name := fmt.Sprintf("%v ws=%v seed=%d threads=%d", algo, withWS, seed, thr)
				log := run(name, seed, i, thr)
				if thr == 1 {
					if replay := run(name+" (replay)", seed, i, thr); !slices.Equal(log, replay) {
						t.Fatalf("%s: replay diverged: %d events %v, first run %d events %v",
							name, len(replay), replay, len(log), log)
					}
				}
			}
			lane++
		}
	}
	t.Logf("%d schedules, %d runs with replays: %d clean, %d retried into success, %d cleanly failed",
		2*len(algos)*perLane, clean+retried+failed, clean, retried, failed)
}

// TestResilientZeroAllocCleanPath: a clean first-try supervised sort
// with a warmed workspace allocates nothing — the supervisor's happy
// path adds no copies, closures, or stats traffic.
func TestResilientZeroAllocCleanPath(t *testing.T) {
	n := 1 << 12
	w := NewWorkspace()
	defer w.Close()
	keys := gen.Uniform[uint64](n, 0, 31)
	vals := RIDs[uint64](n)
	opt := &SortOptions{Workspace: w, Retry: &RetryPolicy{}}
	run := func() {
		if err := SortCtx(context.Background(), MSB, keys, vals, opt); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the arena
	if a := testing.AllocsPerRun(20, run); a != 0 {
		t.Fatalf("clean-path supervised sort allocates %v times per run", a)
	}
}

// BenchmarkResilientOverhead prices the supervisor against a single
// SortCtx attempt on identical warmed-workspace sorts: the clean
// first-try path must cost one classification branch and zero
// allocations.
func BenchmarkResilientOverhead(b *testing.B) {
	n := 1 << 14
	w := NewWorkspace()
	defer w.Close()
	keys := gen.Uniform[uint64](n, 0, 37)
	vals := RIDs[uint64](n)
	ctx := context.Background()
	once := &SortOptions{Workspace: w}
	if err := SortCtx(ctx, MSB, keys, vals, once); err != nil {
		b.Fatal(err)
	}
	for _, arm := range []struct {
		name string
		opt  *SortOptions
	}{{"try", once}, {"resilient", &SortOptions{Workspace: w, Retry: &RetryPolicy{}}}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := SortCtx(ctx, MSB, keys, vals, arm.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
