package partsort

import (
	"context"
	"errors"

	"repro/internal/extsort"
	"repro/internal/hard"
	"repro/internal/kv"
	"repro/internal/tune"
)

// ExternalStats reports what one SortExternal run did: whether it
// spilled, how many bytes moved through the spill files, segment and
// merge counts, and the I/O-overlap split (IONs vs StallNs — see
// OverlapRatio).
type ExternalStats = extsort.Stats

// ErrSpillBudget is wrapped by the *SpillError returned when an external
// sort would exceed SortOptions.MaxSpillBytes of disk.
var ErrSpillBudget = extsort.ErrDiskBudget

// ErrSpillCorrupt is wrapped by the *SpillError returned when a sealed
// run read back from disk fails its count or checksum seal.
var ErrSpillCorrupt = extsort.ErrCorrupt

// SpillPlan is the external-sort shape PlanSpill derives from an input
// size and memory budget; sortd charges external jobs its MemBytes.
type SpillPlan = tune.SpillPlan

// PlanSpill plans the external-sort decision for n tuples of keyBits-bit
// keys under an auxiliary-memory budget of maxAux bytes (0: the default
// budget of half the machine's available memory): whether the input must
// spill at all and, if so, the segment, fanout, line, block, and merge
// shape plus the peak resident footprint MemBytes.
func PlanSpill(n, keyBits int, maxAux int64) SpillPlan {
	return tune.PlanSpill(n, keyBits, maxAux)
}

// SortExternal sorts (keys, vals) by key even when the working set
// exceeds the auxiliary-memory budget, by spilling to disk: one
// counting-free streaming pass forms key-range runs in a temp directory,
// each run is sorted in memory at segment granularity, and a pipelined
// file-backed W-way merge (prefetch overlapped with merge compute)
// produces the sorted output in place. Inputs that fit one segment never
// touch disk. Not stable.
//
// Argument problems return *ArgError, spill I/O failures *SpillError
// (disk budget overruns unwrap to ErrSpillBudget), contained worker
// panics *InternalError. On error keys/vals hold a permutation of the
// input and every temp file has been removed.
func SortExternal[K Key](keys, vals []K, opt *SortOptions) (ExternalStats, error) {
	return SortExternalCtx(context.Background(), keys, vals, opt)
}

// SortExternalCtx is SortExternal under a context: cancellation is
// observed between work chunks of every phase, unwinds cooperatively
// (restoring keys/vals to a permutation of the input and removing the
// temp files), and returns ctx.Err().
func SortExternalCtx[K Key](ctx context.Context, keys, vals []K, opt *SortOptions) (ExternalStats, error) {
	const op = "SortExternal"
	var st ExternalStats
	if err := validatePairs(op, "keys", "vals", keys, vals); err != nil {
		return st, err
	}
	if err := validateOptions(op, opt); err != nil {
		return st, err
	}
	eo := externalOptions[K](opt, len(keys))
	var runErr error
	err := tryRun(op, ctx, optWorkspace(opt), optMaxAux(opt), func(ctl *hard.Ctl) {
		st, runErr = extsort.Run(ctl, keys, vals, optWorkspace(opt).internal(), eo)
	})
	if err != nil {
		return st, err
	}
	if runErr != nil {
		return st, wrapSpill(op, runErr)
	}
	return st, nil
}

// externalOptions resolves the extsort configuration: tune.PlanSpill
// shapes every knob from the memory budget, explicit Spill* overrides
// win, and a non-spilling plan widens the segment so the whole input
// takes the in-memory path.
func externalOptions[K Key](opt *SortOptions, n int) extsort.Options {
	maxAux := optMaxAux(opt)
	eo := extsort.Options{Threads: 1}
	if opt != nil {
		eo.Threads = opt.Threads
		eo.TempDir = opt.TempDir
		eo.MaxSpillBytes = opt.MaxSpillBytes
	}
	plan := tune.PlanSpill(n, kv.Width[K](), maxAux)
	eo.SegmentTuples = plan.SegmentTuples
	eo.BucketBits = plan.BucketBits
	eo.MergeWidth = plan.MergeWidth
	eo.LineTuples = plan.LineTuples
	eo.BlockTuples = plan.BlockTuples
	if opt != nil {
		if opt.SpillSegmentTuples > 0 {
			eo.SegmentTuples = opt.SpillSegmentTuples
		} else if !plan.Spill {
			// The plan says the input fits the memory budget: make the
			// segment cover it so Run takes the in-memory shortcut.
			eo.SegmentTuples = n
		}
		if opt.SpillBucketBits > 0 {
			eo.BucketBits = opt.SpillBucketBits
		}
		if opt.SpillMergeWidth > 0 {
			eo.MergeWidth = opt.SpillMergeWidth
		}
	} else if !plan.Spill {
		eo.SegmentTuples = n
	}
	// A quarter segment per prefetch block keeps each sealed run several
	// blocks deep, so the merge iterators genuinely double-buffer even
	// when an override shrank the segments below the planned size.
	if b := eo.SegmentTuples / 4; b < eo.BlockTuples {
		eo.BlockTuples = b
	}
	return eo
}

// wrapSpill maps an extsort error onto the public taxonomy.
func wrapSpill(op string, err error) error {
	var ioe *extsort.IOError
	if errors.As(err, &ioe) {
		return &SpillError{Op: op, Path: ioe.Path, Err: err}
	}
	return &SpillError{Op: op, Path: "?", Err: err}
}
