package partsort

import (
	"context"

	"repro/internal/hard"
	"repro/internal/kv"
	"repro/internal/numa"
	"repro/internal/sortalgo"
	"repro/internal/tune"
	"repro/internal/ws"
)

// SortStats is the per-phase wall-clock breakdown of a sort run, matching
// the phases of the paper's Figures 11 and 13.
type SortStats = sortalgo.Stats

// SortOptions configures the sorting algorithms. The zero value (or a nil
// pointer) selects sensible defaults: one worker per logical CPU is NOT
// assumed — set Threads explicitly for parallel runs.
type SortOptions struct {
	// Threads is the number of worker goroutines (default 1).
	Threads int
	// Regions simulates a NUMA topology with this many regions and
	// engages the NUMA-aware layout: range-split first pass plus one
	// cross-region shuffle (default 1: no NUMA layer).
	Regions int
	// Oblivious disables the NUMA-aware layout even when Regions > 1.
	Oblivious bool
	// RadixBits is the per-pass radix fanout in bits (default 8).
	RadixBits int
	// RangeFanout is the comparison sort's per-pass fanout (default 360).
	RangeFanout int
	// CacheTuples overrides the cache-resident threshold in tuples.
	CacheTuples int
	// Stats, when non-nil, receives the phase breakdown.
	Stats *SortStats
	// Seed makes splitter sampling deterministic (default fixed).
	Seed uint64
	// Workspace, when non-nil, supplies pooled scratch buffers, internal
	// auxiliary arrays, and a persistent worker pool so repeated sorts make
	// zero steady-state heap allocations. See NewWorkspace.
	Workspace *Workspace
	// MaxAuxBytes caps the auxiliary memory a sort may take for scratch
	// arrays (0: half of the machine's available memory). Every in-memory
	// sort enforces it — SortCtx and the panicking wrappers alike: a
	// Workspace meters each acquisition against it, and without one the
	// linear tmp arrays are checked up front; an overrun is a
	// *ResourceError. CMP switches to the in-place block-permutation
	// layout — no linear tmp arrays, no codes column — when the legacy
	// footprint would exceed the cap (parallel runs use it regardless,
	// unless the NUMA-aware layout is engaged), and the AutoTune planner
	// budgets its algorithm choice against the same cap. Negative is
	// invalid.
	MaxAuxBytes int64
	// AutoTune engages the machine-calibrated adaptive planner: the sort
	// samples the key column, prices candidate configurations with the
	// machine profile (Profile, or the process-wide one — see Calibrate),
	// and fills every knob left at its zero value from the winning plan.
	// Knobs set explicitly always win over the planner. The plan is
	// recorded in Stats.Plan and, under an observability session, emitted
	// as an "autotune-plan" meta event. Inputs smaller than ~4K tuples
	// skip planning entirely.
	AutoTune bool
	// Profile is the calibrated machine profile AutoTune plans against;
	// nil selects the process-wide profile (installed by Calibrate,
	// SetMachineProfile, or LoadMachineProfile, or quick-calibrated
	// lazily on first use). Ignored unless AutoTune is set.
	Profile *MachineProfile
	// Retry, when non-nil, runs SortCtx under the resilient supervisor:
	// contained worker failures retry in place, then degrade along the
	// fallback chain (see RetryPolicy; the zero value is a working
	// policy). nil makes exactly one attempt. Ignored by SortExternal.
	Retry *RetryPolicy

	// TempDir is where SortExternal creates its per-run spill directory
	// ("" selects os.TempDir()). Ignored by the in-memory sorts.
	TempDir string
	// SpillSegmentTuples overrides the external sort's sealed-run
	// granularity (0: planned from MaxAuxBytes). Inputs at most one
	// segment long are sorted in memory without touching disk.
	SpillSegmentTuples int
	// SpillBucketBits overrides the external run-formation fanout in bits
	// (0: planned; at most 16).
	SpillBucketBits int
	// SpillMergeWidth overrides the external merge fan-in cap (0:
	// planned; at most 16).
	SpillMergeWidth int
	// MaxSpillBytes caps SortExternal's total spill-file footprint on
	// disk (0: unlimited). Exceeding it surfaces as a *SpillError
	// wrapping ErrSpillBudget.
	MaxSpillBytes int64
}

func (o *SortOptions) toInternal() sortalgo.Options {
	if o == nil {
		o = &SortOptions{}
	}
	var topo *numa.Topology
	if o.Regions > 1 {
		topo = numa.NewTopology(o.Regions)
	}
	return sortalgo.Options{
		Threads:     o.Threads,
		Topo:        topo,
		Oblivious:   o.Oblivious,
		RadixBits:   o.RadixBits,
		RangeFanout: o.RangeFanout,
		CacheTuples: o.CacheTuples,
		Stats:       o.Stats,
		Seed:        o.Seed,
		Workspace:   o.Workspace.internal(),
	}
}

// sortOp names SortCtx in the errors it returns.
const sortOp = "SortCtx"

// SortCtx sorts (keys, vals) by key with algo under ctx. It is the one
// hardened path behind every in-memory sort of this package:
//
//   - LSB, the stable NUMA-aware LSB radix-sort (Section 4.2.1): the
//     fastest choice for dense (compressed) key domains, using one linear
//     auxiliary array pair. Payloads of equal keys keep their input order.
//   - MSB, the fully in-place MSB radix-sort (Section 4.2.2): no linear
//     auxiliary space, and passes proportional to log n rather than the
//     key domain width — the best choice for sparse domains or when memory
//     is tight. Not stable.
//   - CMP, the range-partitioning comparison sort (Section 4.3): sampled
//     splitters give perfect load balance and skew immunity regardless of
//     the key distribution; heavily repeated keys get single-key
//     partitions that skip sorting entirely. Parallel runs (and any run
//     whose linear scratch would exceed MaxAuxBytes) use the in-place
//     block-permutation layout; otherwise one linear auxiliary array pair
//     is taken. Not stable.
//
// Argument problems return *ArgError, an auxiliary-memory budget overrun
// (SortOptions.MaxAuxBytes) *ResourceError, and a contained worker panic
// *InternalError. Cancellation is observed at pass boundaries and between
// chunks of parallel loops (bounded latency) and returns ctx.Err(). On
// error keys/vals hold a permutation of the input (in unspecified order)
// whenever the failure struck at an interruption point — always the case
// for cancellation and injected faults. With opt.Retry set the sort runs
// under the resilient supervisor (see RetryPolicy); otherwise it makes
// exactly one attempt.
func SortCtx[K Key](ctx context.Context, algo Algorithm, keys, vals []K, opt *SortOptions) error {
	if err := validatePairs(sortOp, "keys", "vals", keys, vals); err != nil {
		return err
	}
	if err := validateOptions(sortOp, opt); err != nil {
		return err
	}
	switch algo {
	case LSB, MSB, CMP:
	default:
		return &ArgError{Func: sortOp, Field: "algo", Reason: "must be LSB, MSB, or CMP"}
	}
	if opt != nil && opt.Retry != nil {
		return sortSupervised(ctx, algo, keys, vals, opt)
	}
	return sortOnce(ctx, algo, keys, vals, opt)
}

// sortOnce is one hardened attempt of a validated sort: tryRun arms the
// cancellation control and budget, autotune fills the knobs, and the
// sortalgo driver runs with the control installed.
func sortOnce[K Key](ctx context.Context, algo Algorithm, keys, vals []K, opt *SortOptions) error {
	return tryRun(sortOp, ctx, optWorkspace(opt), optMaxAux(opt), func(ctl *hard.Ctl) {
		force, stable, tight := tune.AlgoCMP, false, false
		switch algo {
		case LSB:
			force, stable = tune.AlgoLSB, true
		case MSB:
			force, tight = tune.AlgoMSB, true
		}
		eff, plan := autotune(keys, opt, force, stable, tight)
		io := eff.toInternal()
		io.Ctl = ctl
		switch {
		case algo == MSB:
			sortalgo.MSB(keys, vals, io)
		case algo == CMP && cmpInPlace[K](eff, plan, len(keys)):
			sortalgo.CMP[K](keys, vals, nil, nil, io)
		default:
			tmpK, tmpV, w := scratchPair[K](eff, len(keys))
			defer func() {
				ws.PutKeys(w, tmpK)
				ws.PutKeys(w, tmpV)
			}()
			if algo == LSB {
				sortalgo.LSB(keys, vals, tmpK, tmpV, io)
			} else {
				sortalgo.CMP(keys, vals, tmpK, tmpV, io)
			}
		}
	})
}

// scratchPair takes the two linear auxiliary arrays from the workspace,
// whose ledger enforces the run's budget, or from the allocator — in which
// case the pair is checked against the budget (MaxAuxBytes, or the default
// half-of-available) here, so a budget-less allocation cannot silently
// exceed it.
func scratchPair[K Key](opt *SortOptions, n int) ([]K, []K, *ws.Workspace) {
	w := optWorkspace(opt).internal()
	if w == nil {
		need := 2 * int64(n) * int64(kv.Width[K]()/8)
		budget := optMaxAux(opt)
		if budget == 0 {
			budget = tune.DefaultAuxBudget()
		}
		if budget > 0 && need > budget {
			panic(&ws.BudgetError{Need: need, InUse: 0, Budget: budget})
		}
	}
	return ws.Keys[K](w, n), ws.Keys[K](w, n), w
}

// mustSort is the panicking wrappers' bridge to SortCtx: they raise
// exactly the typed error SortCtx returns.
func mustSort(err error) {
	if err != nil {
		panic(err)
	}
}

// SortLSB is SortCtx(context.Background(), LSB, keys, vals, opt) that
// panics with the returned error: the stable LSB radix-sort under the same
// auxiliary-memory budget and panic containment.
func SortLSB[K Key](keys, vals []K, opt *SortOptions) {
	mustSort(SortCtx(context.Background(), LSB, keys, vals, opt))
}

// SortMSB is SortCtx(context.Background(), MSB, keys, vals, opt) that
// panics with the returned error: the in-place MSB radix-sort under the
// same auxiliary-memory budget and panic containment.
func SortMSB[K Key](keys, vals []K, opt *SortOptions) {
	mustSort(SortCtx(context.Background(), MSB, keys, vals, opt))
}

// SortCMP is SortCtx(context.Background(), CMP, keys, vals, opt) that
// panics with the returned error: the range-partitioning comparison sort
// under the same auxiliary-memory budget and panic containment.
func SortCMP[K Key](keys, vals []K, opt *SortOptions) {
	mustSort(SortCtx(context.Background(), CMP, keys, vals, opt))
}

// cmpInPlace decides CMP's layout: the in-place block-permutation
// path whenever the NUMA-aware first pass (which must route through tmp)
// is not engaged AND any of — the planner asked for it, the run is
// parallel (the permutation kernel beats scatter+copy-back there and
// halves peak memory), or the legacy footprint (tmp pair + codes column)
// would exceed the auxiliary-memory budget.
func cmpInPlace[K Key](opt *SortOptions, plan *SortPlan, n int) bool {
	if opt != nil && opt.Regions > 1 && !opt.Oblivious {
		return false
	}
	if plan != nil && plan.InPlace {
		return true
	}
	var budget int64
	threads := 1
	if opt != nil {
		threads = opt.Threads
		budget = opt.MaxAuxBytes
	}
	if threads > 1 {
		return true
	}
	if budget <= 0 {
		budget = tune.DefaultAuxBudget()
	}
	width := int64(kv.Width[K]())
	legacy := int64(n) * (2*width/8 + 4)
	return legacy > budget
}

// IsSorted reports whether keys are in non-decreasing order.
func IsSorted[K Key](keys []K) bool {
	return kv.IsSorted(keys)
}

// SameMultiset reports whether two (key, payload) column pairs hold the
// same tuple multiset — the permutation check for partition and sort
// outputs. It uses an order-independent mixed checksum; collisions are
// astronomically unlikely but not impossible.
func SameMultiset[K Key](aKeys, aVals, bKeys, bVals []K) bool {
	return kv.ChecksumPairs(aKeys, aVals) == kv.ChecksumPairs(bKeys, bVals)
}

// IsStableSorted reports whether keys are sorted and payloads of equal
// keys are in strictly increasing order — the stability witness when
// payloads are record ids.
func IsStableSorted[K Key](keys, vals []K) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			return false
		}
		if keys[i-1] == keys[i] && vals[i-1] >= vals[i] {
			return false
		}
	}
	return true
}
