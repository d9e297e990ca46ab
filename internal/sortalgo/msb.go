package sortalgo

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/hard"
	"repro/internal/kv"
	"repro/internal/numa"
	"repro/internal/obs"
	"repro/internal/part"
	"repro/internal/pfunc"
	"repro/internal/rangeidx"
	"repro/internal/splitter"
	"repro/internal/ws"
)

// msbInsertionCutoff is the segment size below which MSB recursion falls
// back to insertion sort; the paper generates parts of average size 4-8
// and insertion-sorts them ignoring the remaining radix bits.
const msbInsertionCutoff = 24

// MSB is the fully in-place most-significant-bit radix-sort of Section
// 4.2.2, using a different partitioning variant per memory layer:
//
//  1. A T+T'-way hybrid range-radix split into block lists (Section
//     3.2.3), in place, where the sampled range delimiters guarantee load
//     balance and the radix-boundary delimiters pin each range inside one
//     high-bits bucket.
//  2. A synchronized in-place block shuffle across NUMA regions
//     (Sections 3.2.4, 3.3.2) that makes every range contiguous.
//  3. Shared-nothing recursion per range: out-of-cache in-place
//     partitioning (Algorithm 4) while the segment exceeds the cache,
//     in-cache in-place partitioning (Algorithm 2) below that, and
//     insertion sort on trivial parts.
//
// MSB is not stable; unlike LSB it covers log n bits instead of log D, so
// it wins on sparse key domains, and it needs no linear auxiliary array.
func MSB[K kv.Key](keys, vals []K, opt Options) {
	opt = opt.withDefaults()
	primePool(opt)
	instrumentWS(opt.Stats, opt.Workspace, "msb", func() {
		msbRun(keys, vals, opt)
	})
}

// msbRun is MSB after defaults and instrumentation setup.
func msbRun[K kv.Key](keys, vals []K, opt Options) {
	n := len(keys)
	if n <= 1 {
		return
	}
	st := opt.Stats
	ctl := opt.Ctl
	width := kv.Width[K]()

	// Permutation restore on failure: between completed block partitioning
	// and the start of the block shuffle, tuples live partly in scratch
	// blocks outside keys/vals; gathering every block list back into the
	// arrays makes them a permutation of the input again. Outside that
	// window either keys is a permutation by construction (in-place
	// partitioning permutes at every completed step, and interruption
	// points sit at recursion entries) or a narrower handler — the chunk
	// rollback inside part.ToBlocksInPlaceParallelCtl — already restored.
	// The shuffle itself has no interruption points (block moves are not
	// restorable once lists go stale), so a panic there is only contained
	// and wrapped, without a permutation guarantee.
	var blocks *part.Blocks[K]
	inBlocks := false
	defer func() {
		if e := recover(); e != nil {
			if inBlocks && blocks != nil {
				part.RestoreFromBlocks(blocks, keys, vals)
			}
			panic(hard.NewPanic(e))
		}
	}()

	domainBits := timedInt(st, "msb", phHistogram, func() int {
		return kv.DomainBits(keys)
	})

	t := opt.Threads
	if t == 1 && opt.regions() == 1 {
		timed(st, "msb", phLocal, func() {
			msbRecurse(opt.Workspace, keys, vals, domainBits, CacheTuples(opt, width), ctl)
		})
		return
	}

	// Step 1: T-1 sampled delimiters unioned with the boundaries of the
	// top log2(T') bits, then duplicate refinement for heavy keys.
	topBits := bits.Len(uint(t - 1)) // ceil(log2(T)), >= 1 for T >= 2
	if topBits < 1 {
		topBits = 1
	}
	var delims []K
	var fn treeBatchFunc[K]
	timed(st, "msb", phHistogram, func() {
		sampled := splitter.ForThreads(keys, t, opt.Seed)
		delims, _ = splitter.RefineDuplicates(splitter.Union(sampled, splitter.RadixBoundaries[K](topBits)))
		fn = treeBatchFunc[K]{rangeidx.NewTreeFor(delims), len(delims) + 1}
	})

	// Steps 2+3: fan the keys out into per-range contiguous segments. The
	// default path is the in-place block-permutation kernel
	// (part.BlockPermutePartitionCtl): O(threads × fanout × B) scratch
	// instead of list-of-blocks auxiliary memory plus a copy-back, which
	// halves peak memory on large sorts. The NUMA-aware path keeps the
	// legacy block lists + synchronized cross-region shuffle, whose block
	// store placement and RegionOfTuple metering the permutation kernel
	// does not model.
	var starts []int
	inPlaceFanOut := opt.Topo == nil || opt.Oblivious
	if inPlaceFanOut {
		pass0 := obs.BeginPassIn("msb", 0, -1)
		starts = opt.Workspace.Ints(fn.Fanout() + 1)
		timed(st, "msb", phPartition, func() {
			part.BlockPermutePartitionCtl(opt.Workspace, keys, vals, fn, msbBlockTuples[K](), t, starts, ctl)
		})
		pass0.EndN(int64(n))
		if st != nil {
			st.Passes++
		}
	} else {
		// Step 2: range partition into blocks, in place, in parallel.
		pass0 := obs.BeginPassIn("msb", 0, -1)
		timed(st, "msb", phPartition, func() {
			blocks = part.ToBlocksInPlaceParallelCtl(keys, vals, fn, msbBlockTuples[K](), t, ctl)
		})
		inBlocks = true
		ctl.CheckpointNow()
		fault.Inject(fault.SiteShuffleStart)
		inBlocks = false

		// Step 3: synchronized in-place block shuffle across regions.
		timed(st, "msb", phShuffle, func() {
			shOpt := part.ShuffleOptions{Workers: t}
			bounds := equalBounds(n, opt.regions())
			shOpt.Topo = opt.Topo
			shOpt.RegionOfTuple = func(i int) numa.Region {
				for r := 1; r < len(bounds); r++ {
					if i < bounds[r] {
						return numa.Region(r - 1)
					}
				}
				return numa.Region(len(bounds) - 2)
			}
			starts = part.ShuffleBlocksInPlace(blocks, shOpt)
		})
		pass0.EndN(int64(n))
		addRemoteBytes(opt.Topo.RemoteBytes())
		if st != nil {
			st.Passes++
			st.RemoteBytes = opt.Topo.RemoteBytes()
		}
	}

	// Step 4: shared-nothing recursion per range. The union with radix
	// boundaries pins each range inside one top-bits bucket, so recursion
	// covers the remaining width-topBits bits (capped by the domain).
	hiBit := min(width-topBits, domainBits)
	ct := CacheTuples(opt, width)
	timed(st, "msb", phLocal, func() {
		w := opt.Workspace
		r := ws.Scratch[msbWorker[K]](w, ws.SlotMsbWork)
		r.w, r.keys, r.vals = w, keys, vals
		r.starts, r.delims = starts, delims
		r.hiBit, r.ct, r.nq = hiBit, ct, fn.Fanout()
		r.ctl = ctl
		r.next.Store(0)
		ws.RunWorkersCtl(w, t, r, ctl)
		r.w, r.keys, r.vals, r.starts, r.delims = nil, nil, nil, nil, nil
		r.ctl = nil
		ws.PutScratch(w, ws.SlotMsbWork, r)
	})
	if inPlaceFanOut {
		opt.Workspace.PutInts(starts)
	}
}

// msbWorker is the worker-pool driver of MSB's shared-nothing recursion:
// workers claim ranges off an atomic cursor (dynamic balancing without a
// work channel) and recurse independently.
type msbWorker[K kv.Key] struct {
	w          *ws.Workspace
	keys, vals []K
	starts     []int
	delims     []K // the first pass's delimiters, for splitter.SingleKey
	hiBit, ct  int
	nq         int
	ctl        *hard.Ctl
	next       atomic.Int64
}

func (r *msbWorker[K]) RunTask(wi int) {
	sp := obs.BeginIn("msb", "msb-recurse", "worker", wi)
	var done int64
	for {
		q := int(r.next.Add(1) - 1)
		if q >= r.nq {
			break
		}
		seg := r.starts[q+1] - r.starts[q]
		if seg <= 1 {
			continue
		}
		if splitter.SingleKey(r.delims, q) {
			continue // single-key partition: already sorted
		}
		msbRecurse(r.w, r.keys[r.starts[q]:r.starts[q+1]], r.vals[r.starts[q]:r.starts[q+1]], r.hiBit, r.ct, r.ctl)
		done += int64(seg)
	}
	sp.EndN(done)
}

// msbBlockTuples is the block size of the first MSB pass: a multiple of
// the cache-line tuple count, large enough to amortize block-list hops and
// synchronization.
func msbBlockTuples[K kv.Key]() int {
	return 1024
}

// CacheTuples returns the per-worker cache-resident segment size in
// tuples (derived from a 256 KiB private L2 unless overridden).
func CacheTuples(opt Options, width int) int {
	if opt.CacheTuples > 0 {
		return opt.CacheTuples
	}
	return (256 << 10) / (2 * width / 8)
}

// msbRecurse sorts one segment in place by MSB radix partitioning over the
// bit range [0, hiBit), drawing per-level histograms (and the out-of-cache
// variant's line buffers) from the workspace. Interruption points (the
// cancellation checkpoint and fault site) sit only at recursion entry,
// where every ancestor's in-place partition has completed and the arrays
// are a permutation of the input; the in-place kernels themselves are never
// interrupted mid-operation.
func msbRecurse[K kv.Key](w *ws.Workspace, keys, vals []K, hiBit, cacheT int, ctl *hard.Ctl) {
	ctl.Checkpoint()
	fault.Inject(fault.SiteMSBRecurse)
	n := len(keys)
	if n <= msbInsertionCutoff {
		InsertionSort(keys, vals)
		return
	}
	if hiBit <= 0 {
		return // all radix bits consumed: keys are equal
	}
	var b int
	if n > cacheT {
		b = min(hiBit, 8)
	} else {
		// In-cache: ~log n - 2 bits makes parts of average size 4-8.
		b = min(hiBit, max(1, bits.Len(uint(n))-3))
	}
	fn := pfunc.NewRadix[K](uint(hiBit-b), uint(hiBit))
	hist := part.HistogramInto(w.Ints(fn.Fanout()), keys, fn)
	if n > cacheT {
		part.InPlaceOutOfCacheWS(w, keys, vals, fn, hist)
	} else {
		part.InPlaceInCacheWS(w, keys, vals, fn, hist)
	}
	lo := 0
	for _, h := range hist {
		if h > 1 {
			msbRecurse(w, keys[lo:lo+h], vals[lo:lo+h], hiBit-b, cacheT, ctl)
		}
		lo += h
	}
	w.PutInts(hist)
}
