package sortalgo

import (
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/hard"
	"repro/internal/kv"
	"repro/internal/numa"
	"repro/internal/obs"
	"repro/internal/part"
	"repro/internal/rangeidx"
	"repro/internal/splitter"
	"repro/internal/ws"
)

// CMP is the comparison sort of Section 4.3: very few wide-fanout range
// partitioning passes — the range function computed once per tuple through
// the cache-resident index and stored as partition codes — until segments
// are cache-resident, then SIMD comb-sort with W-way lane merging. The
// first pass is NUMA-aware: regions partition locally and one shuffle
// moves each tuple across the interconnect at most once. tmpK/tmpV is the
// linear auxiliary space; passing nil tmp arrays selects the in-place
// variant — block-permutation first pass, pooled per-partition recursion
// scratch — which ignores the NUMA topology. Not stable.
//
// Unlike the radix sorts, CMP's splitters adapt to any distribution:
// sampled delimiters balance the work under skew, and keys sampled twice
// or more get single-key partitions that skip sorting entirely.
func CMP[K kv.Key](keys, vals, tmpK, tmpV []K, opt Options) {
	opt = opt.withDefaults()
	primePool(opt)
	instrumentWS(opt.Stats, opt.Workspace, "cmp", func() {
		cmpRun(keys, vals, tmpK, tmpV, opt)
	})
}

// cmpRun is CMP after defaults and instrumentation setup.
func cmpRun[K kv.Key](keys, vals, tmpK, tmpV []K, opt Options) {
	n := len(keys)
	if n <= 1 {
		return
	}
	st := opt.Stats
	ctl := opt.Ctl
	width := kv.Width[K]()
	ct := CacheTuples(opt, width)

	// Permutation restore on failure: only the cross-region shuffle
	// overwrites keys before the recursion takes over, and tmp then still
	// holds every tuple of the completed first pass, so copying tmp back
	// makes keys a permutation of the input again. Everywhere else either
	// keys is untouched (the first-pass scatter reads keys, writes tmp) or
	// cmpRecurseAll's own handler has already repaired the recursion's
	// destination ranges.
	inShuffle := false
	defer func() {
		if e := recover(); e != nil {
			if inShuffle {
				copy(keys, tmpK)
				copy(vals, tmpV)
			}
			panic(hard.NewPanic(e))
		}
	}()

	w := opt.Workspace
	if n <= ct {
		ctl.CheckpointNow()
		fault.Inject(fault.SiteCMPPass)
		cs := getCombSorter[K](w, n)
		timed(st, "cmp", phCache, func() {
			cs.SortInto(keys, vals, keys, vals)
		})
		putCombSorter(w, cs)
		return
	}

	c := opt.regions()
	t := opt.Threads

	// Pass 1: global splitters, then region-local partition + shuffle. The
	// delimiters stay leased through the recursion, which reads its
	// single-key partitions off them; the tree goes back to the pool for
	// the recursion's workers once the first pass is done.
	var delims []K
	tree := ws.Scratch[rangeidx.Tree[K]](w, ws.SlotRangeTree)
	timed(st, "cmp", phHistogram, func() {
		delims = cmpSplitters(w, keys, min(64*opt.RangeFanout, n), opt.RangeFanout, opt.Seed)
		tree.Reset(delims)
	})
	defer ws.PutKeys(w, delims)
	fanout := len(delims) + 1
	fn := treeBatchFunc[K]{tree, fanout}

	if tmpK == nil {
		// In-place: the first pass fans out through the block-permutation
		// kernel (O(threads × fanout × B) scratch instead of the linear tmp
		// arrays plus a codes column), and the recursion draws per-partition
		// scratch from the workspace pool, bounded by the largest top-level
		// partition per worker. The NUMA-aware layout needs tmp (the
		// cross-region shuffle routes through it), so a nil-tmp request runs
		// obliviously regardless of the topology.
		ctl.CheckpointNow()
		fault.Inject(fault.SiteCMPPass)
		pass0 := obs.BeginPassIn("cmp", 0, -1)
		starts := w.Ints(fanout + 1)
		timed(st, "cmp", phPartition, func() {
			part.BlockPermutePartitionCtl(w, keys, vals, fn, cmpBlockTuples(n, fanout, t), t, starts, ctl)
		})
		pass0.EndN(int64(n))
		ws.PutScratch(w, ws.SlotRangeTree, tree)
		cmpRecurseAll[K](keys, vals, nil, nil, starts, delims, true, opt, ct)
		w.PutInts(starts)
		if st != nil {
			st.Passes++
		}
		return
	}

	codes := w.Int32s(n)
	defer w.PutInt32s(codes)

	var outBounds []int // per-region segment bounds after the shuffle
	var starts []int    // global per-partition start offsets
	if c == 1 || opt.Oblivious {
		var hists [][]int
		var bounds []int
		ctl.CheckpointNow()
		fault.Inject(fault.SiteCMPPass)
		pass0 := obs.BeginPassIn("cmp", 0, -1)
		timed(st, "cmp", phHistogram, func() {
			hists, bounds = part.ParallelHistogramsCodesCtlWS(w, keys, fn, codes, t, ctl)
		})
		timed(st, "cmp", phPartition, func() {
			part.ParallelNonInPlaceCodesCtlWS(w, keys, vals, tmpK, tmpV, codes, hists, 0, ctl)
		})
		pass0.EndN(int64(n))
		merged := part.MergeHistogramsInto(w.Ints(fanout), hists)
		starts = w.Ints(fanout + 1)
		part.StartsInto(starts[:fanout], merged)
		starts[fanout] = n
		w.PutInts(merged)
		w.PutMatrix(hists)
		w.PutInts(bounds)
		ws.PutScratch(w, ws.SlotRangeTree, tree)
		// Data is in tmp; recursion delivers results back into keys.
		cmpRecurseAll(tmpK, tmpV, keys, vals, starts, delims, false, opt, ct)
		w.PutInts(starts)
		if st != nil {
			st.Passes++
		}
		return
	}

	// NUMA-aware: each region partitions its input segment into its tmp
	// segment, then partitions are grouped into C contiguous runs of
	// near-equal tuple count and shuffled to their destination region.
	topo := opt.Topo
	inBounds := equalBounds(n, c)
	tpr := threadsPerRegion(opt)
	regionHists := make([][][]int, c)
	regionChunks := make([][]int, c)
	ctl.CheckpointNow()
	fault.Inject(fault.SiteCMPPass)
	pass0 := obs.BeginPassIn("cmp", 0, -1)
	timed(st, "cmp", phHistogram, func() {
		g := hard.NewGroup(ctl)
		for r := 0; r < c; r++ {
			g.Go(func() {
				lo, hi := inBounds[r], inBounds[r+1]
				regionHists[r], regionChunks[r] = part.ParallelHistogramsCodesCtlWS(w, keys[lo:hi], fn, codes[lo:hi], tpr, ctl)
			})
		}
		g.Wait()
	})
	timed(st, "cmp", phPartition, func() {
		g := hard.NewGroup(ctl)
		for r := 0; r < c; r++ {
			g.Go(func() {
				lo, hi := inBounds[r], inBounds[r+1]
				part.ParallelNonInPlaceCodesCtlWS(w, keys[lo:hi], vals[lo:hi], tmpK[lo:hi], tmpV[lo:hi], codes[lo:hi], regionHists[r], 0, ctl)
			})
		}
		g.Wait()
	})

	perRegion := w.Matrix(c, fanout)
	for r := 0; r < c; r++ {
		part.MergeHistogramsInto(perRegion[r], regionHists[r])
		w.PutMatrix(regionHists[r])
		w.PutInts(regionChunks[r])
	}
	totals := make([]int, fanout)
	for r := 0; r < c; r++ {
		for q := 0; q < fanout; q++ {
			totals[q] += perRegion[r][q]
		}
	}
	// Group partitions into C contiguous runs of near-equal tuple count.
	groupOf := groupRanges(totals, n, c)
	// Global layout: partition-major, source-region order within each.
	dstOff := w.Matrix(c, fanout)
	starts = w.Ints(fanout + 1)
	outBounds = make([]int, c+1)
	o := 0
	prevGroup := 0
	for q := 0; q < fanout; q++ {
		starts[q] = o
		for gg := prevGroup + 1; gg <= groupOf[q]; gg++ {
			outBounds[gg] = o
		}
		prevGroup = groupOf[q]
		for r := 0; r < c; r++ {
			dstOff[r][q] = o
			o += perRegion[r][q]
		}
	}
	starts[fanout] = n
	for gg := prevGroup + 1; gg <= c; gg++ {
		outBounds[gg] = n
	}
	outBounds[c] = n

	ctl.CheckpointNow()
	fault.Inject(fault.SiteShuffleStart)
	inShuffle = true
	timed(st, "cmp", phShuffle, func() {
		numa.RunPerRegion(topo, tpr, func(w numa.Worker) {
			meter := topo.NewMeter()
			dst := int(w.Region)
			// Rotated all-to-all schedule ([10], Section 3.3): step s reads
			// from region (dst+s) mod C, balancing interconnect use.
			srcStarts := opt.Workspace.Ints(fanout)
			for s := 0; s < c; s++ {
				src := (dst + s) % c
				part.StartsInto(srcStarts, perRegion[src])
				for q := 0; q < fanout; q++ {
					if groupOf[q] != dst || q%tpr != w.Index {
						continue
					}
					cnt := perRegion[src][q]
					if cnt == 0 {
						continue
					}
					// Interrupting between partition copies is safe: tmp
					// stays intact, and the cmpRun restore handler rebuilds
					// keys from it.
					ctl.Checkpoint()
					so := inBounds[src] + srcStarts[q]
					do := dstOff[src][q]
					copy(keys[do:do+cnt], tmpK[so:so+cnt])
					copy(vals[do:do+cnt], tmpV[so:so+cnt])
					meter.Record(numa.Region(src), w.Region, uint64(cnt*2*width/8))
				}
			}
			opt.Workspace.PutInts(srcStarts)
			meter.Flush()
		})
	})
	inShuffle = false
	ws.PutScratch(w, ws.SlotRangeTree, tree)
	w.PutMatrix(perRegion)
	w.PutMatrix(dstOff)
	pass0.EndN(int64(n))
	addRemoteBytes(topo.RemoteBytes())
	if st != nil {
		st.Passes++
		st.RemoteBytes = topo.RemoteBytes()
		st.RegionBounds = append([]int(nil), outBounds...)
	}

	// Recursion: data is in keys (post-shuffle); results must stay in
	// keys, scratch is tmp.
	cmpRecurseAll(keys, vals, tmpK, tmpV, starts, delims, true, opt, ct)
	w.PutInts(starts)
}

// cmpWorker is the worker-pool driver of cmpRecurseAll: workers claim
// top-level partitions off an atomic cursor (the same dynamic balancing as
// the old channel feed, without the channel) and recurse. Reused via
// ws.Scratch so a steady-state run allocates no driver state.
type cmpWorker[K kv.Key] struct {
	xK, xV, yK, yV []K
	starts         []int
	delims         []K // the top-level delimiters, for splitter.SingleKey
	wantInX        bool
	opt            Options
	ct             int
	// claimed[q] is set the moment a worker claims partition q; a claimed
	// partition's destination range is always repaired by cmpRecurse's own
	// unwind handler, so the cmpRecurseAll coordinator only fixes unclaimed
	// ones. nil when the run has no Ctl.
	claimed        []int32
	next           atomic.Int64
	passNs, leafNs atomic.Int64
}

func (r *cmpWorker[K]) RunTask(wi int) {
	w := r.opt.Workspace
	sp := obs.BeginIn("cmp", "cmp-recurse", "worker", wi)
	var done int64
	l := &cmpLocal[K]{
		cs:   getCombSorter[K](w, r.ct+r.ct/2),
		tree: ws.Scratch[rangeidx.Tree[K]](w, ws.SlotRangeTree),
		opt:  r.opt, ct: r.ct, passNs: &r.passNs, leafNs: &r.leafNs,
	}
	nq := int64(len(r.starts) - 1)
	for {
		q := r.next.Add(1) - 1
		if q >= nq {
			break
		}
		if r.claimed != nil {
			r.claimed[q] = 1
		}
		lo, hi := r.starts[q], r.starts[q+1]
		if hi-lo == 0 {
			continue
		}
		if splitter.SingleKey(r.delims, int(q)) || hi-lo == 1 {
			if !r.wantInX {
				copy(r.yK[lo:hi], r.xK[lo:hi])
				copy(r.yV[lo:hi], r.xV[lo:hi])
			}
			continue
		}
		if r.yK == nil {
			// In-place mode: draw the ping-pong scratch for this partition
			// from the workspace pool — peak O(threads × max partition)
			// instead of a linear tmp array. On unwind the buffers leak to
			// the collector (never back to the pool half-filled); the
			// segment itself is repaired by cmpRecurse's own handler, since
			// its destination is x.
			sk := ws.Keys[K](w, hi-lo)
			sv := ws.Keys[K](w, hi-lo)
			cmpRecurse(r.xK[lo:hi], r.xV[lo:hi], sk, sv, true, l)
			ws.PutKeys(w, sk)
			ws.PutKeys(w, sv)
		} else {
			cmpRecurse(r.xK[lo:hi], r.xV[lo:hi], r.yK[lo:hi], r.yV[lo:hi], r.wantInX, l)
		}
		done += int64(hi - lo)
	}
	putCombSorter(w, l.cs)
	ws.PutScratch(w, ws.SlotRangeTree, l.tree)
	sp.EndN(done)
}

// cmpLocal is one recursion worker's state: the comb sorter of its
// leaves, the range tree every node rebuilds in place (a node's tree is
// dead once its scatter is done, so one per worker serves every node),
// and the run's options and time accumulators.
type cmpLocal[K kv.Key] struct {
	cs             *CombSorter[K]
	tree           *rangeidx.Tree[K]
	opt            Options
	ct             int
	passNs, leafNs *atomic.Int64
}

// cmpRecurseAll distributes the top-level partitions over the worker pool.
// Data sits in xK/xV at the offsets given by starts; results land in x
// when wantInX, else in y. Leaf and pass CPU time are accumulated
// separately and the measured wall clock of the whole recursion is split
// proportionally between the LocalRadix (range passes) and CacheSort
// phases.
func cmpRecurseAll[K kv.Key](xK, xV, yK, yV []K, starts []int, delims []K, wantInX bool, opt Options, ct int) {
	st := opt.Stats
	w := opt.Workspace
	ctl := opt.Ctl
	nq := len(starts) - 1
	// Workers claim top-level partitions in arbitrary order, so on failure
	// the array state is: claimed partitions' destination ranges repaired by
	// cmpRecurse's unwind handlers, unclaimed ones still holding their
	// tuples in x. When the destination is y, copy those across to make the
	// whole destination a permutation of the input.
	var claimed []int32
	if ctl != nil {
		claimed = make([]int32, nq)
	}
	defer func() {
		e := recover()
		if e == nil {
			return
		}
		if claimed != nil && !wantInX {
			for q := 0; q < nq; q++ {
				if claimed[q] == 0 {
					lo, hi := starts[q], starts[q+1]
					copy(yK[lo:hi], xK[lo:hi])
					copy(yV[lo:hi], xV[lo:hi])
				}
			}
		}
		panic(hard.NewPanic(e))
	}()
	begin := time.Now()
	r := ws.Scratch[cmpWorker[K]](w, ws.SlotCmpWork)
	r.xK, r.xV, r.yK, r.yV = xK, xV, yK, yV
	r.starts, r.delims, r.wantInX = starts, delims, wantInX
	r.opt, r.ct = opt, ct
	r.claimed = claimed
	r.next.Store(0)
	r.passNs.Store(0)
	r.leafNs.Store(0)
	ws.RunWorkersCtl(w, opt.Threads, r, ctl)
	p, l := r.passNs.Load(), r.leafNs.Load()
	r.xK, r.xV, r.yK, r.yV = nil, nil, nil, nil
	r.starts, r.delims = nil, nil
	r.claimed = nil
	r.opt = Options{}
	ws.PutScratch(w, ws.SlotCmpWork, r)
	if st != nil && p+l > 0 {
		wall := time.Since(begin)
		st.add(phLocal, time.Duration(int64(wall)*p/(p+l)))
		st.add(phCache, time.Duration(int64(wall)*l/(p+l)))
	}
}

// cmpRecurse sorts one segment: data in x, scratch y, result in x when
// wantInX else in y. The sample, delimiters, codes, histogram and offsets
// come from the workspace and the range tree from l, so a warm run
// allocates nothing per node.
//
// Unwind contract: whenever cmpRecurse unwinds from a panic or bail, the
// segment's DESTINATION side holds a permutation of the segment's tuples.
// Before the scatter completes, x is untouched, so copying x across (when
// the destination is y) restores. After the scatter, the processed prefix
// of the destination is already correct, the in-flight recursive sub-call
// has repaired its own sub-range (its destination is this level's
// destination sub-range, by the ping-pong argument), and the unprocessed
// tail still sits in y — so when the destination is x, the tail is copied
// back from y. The in-place comb-sort leaf has no interruption points, so
// it is never left half-merged by a checkpoint or fault site.
func cmpRecurse[K kv.Key](xK, xV, yK, yV []K, wantInX bool, l *cmpLocal[K]) {
	n := len(xK)
	w := l.opt.Workspace
	ctl := l.opt.Ctl
	scattered := false
	safeLo := 0          // destination prefix [0, safeLo) already correct
	subLo, subHi := 0, 0 // in-flight recursive sub-range (repairs itself)
	defer func() {
		e := recover()
		if e == nil {
			return
		}
		if !scattered {
			if !wantInX {
				copy(yK, xK)
				copy(yV, xV)
			}
		} else if wantInX {
			copy(xK[safeLo:subLo], yK[safeLo:subLo])
			copy(xV[safeLo:subLo], yV[safeLo:subLo])
			copy(xK[subHi:], yK[subHi:])
			copy(xV[subHi:], yV[subHi:])
		}
		panic(hard.NewPanic(e))
	}()
	ctl.Checkpoint()
	fault.Inject(fault.SiteCMPPass)
	if n <= l.ct {
		start := time.Now()
		if wantInX {
			l.cs.SortInto(xK, xV, xK, xV)
		} else {
			l.cs.SortInto(xK, xV, yK, yV)
		}
		l.leafNs.Add(int64(time.Since(start)))
		return
	}
	start := time.Now()
	p := l.opt.RangeFanout
	delims := cmpSplitters(w, xK, cmpNodeSamples(n, p), p, l.opt.Seed+uint64(n))
	l.tree.Reset(delims)
	fanout := len(delims) + 1
	codes := w.Int32s(n)
	hist := part.HistogramCodesBatchInto(w.Ints(fanout), xK, l.tree, codes)
	starts, _ := part.StartsInto(w.Ints(fanout), hist)
	part.NonInPlaceOutOfCacheCodesCtlWS(w, xK, xV, yK, yV, codes, fanout, starts, ctl)
	scattered = true
	w.PutInt32s(codes)
	w.PutInts(starts)
	l.passNs.Add(int64(time.Since(start)))
	lo := 0
	for q, h := range hist {
		if h > 0 {
			if splitter.SingleKey(delims, q) || h == 1 {
				if wantInX {
					start := time.Now()
					copy(xK[lo:lo+h], yK[lo:lo+h])
					copy(xV[lo:lo+h], yV[lo:lo+h])
					l.passNs.Add(int64(time.Since(start)))
				}
			} else {
				subLo, subHi = lo, lo+h
				cmpRecurse(yK[lo:lo+h], yV[lo:lo+h], xK[lo:lo+h], xV[lo:lo+h], !wantInX, l)
			}
		}
		lo += h
		safeLo, subLo, subHi = lo, lo, lo
	}
	w.PutInts(hist)
	ws.PutKeys(w, delims)
}

// cmpNodeSamples sizes a recursion node's splitter sample: an eighth of
// the node's n tuples, at least two per bucket of the p-way split (a key
// that fills a bucket is then sampled twice and refined into a
// single-key partition), and at most the 64 per bucket the top level
// draws. A constant 64·p would exceed the node itself once nodes shrink
// below about 23K tuples, so the recursion would sample about as many
// keys as it sorts; scaling the oversampling to the subproblem follows
// Axtmann et al.'s in-place sample sort.
func cmpNodeSamples(n, p int) int {
	return min(max(n/8, 2*p), 64*p, n)
}

// cmpSplitters draws samples keys from keys and returns the refined
// equal-depth delimiters of a p-way split, leased from the workspace
// (return them with ws.PutKeys); the sample itself is scratch.
func cmpSplitters[K kv.Key](w *ws.Workspace, keys []K, samples, p int, seed uint64) []K {
	s := splitter.SampleInto(ws.Keys[K](w, samples), keys, seed)
	delims, _ := splitter.RefineDuplicates(splitter.EqualDepthInto(ws.Keys[K](w, p-1), s, p))
	ws.PutKeys(w, s)
	return delims
}

// cmpBlockTuples sizes the block-permutation pass's block for CMP's wide
// fanout: the classify buffers hold workers × fanout × b tuples, so b
// shrinks (in powers of two, floored at 16) until they fit in a quarter
// of the input — otherwise a small sort's scratch would exceed the input
// itself and the whole pass would degenerate into the cleanup path.
func cmpBlockTuples(n, fanout, workers int) int {
	b := part.DefaultBlockTuples
	for b > 16 && workers*fanout*b > n/4 {
		b >>= 1
	}
	return b
}

// treeBatchFunc adapts a range tree to pfunc.Func and BatchLookuper with a
// fixed fanout.
type treeBatchFunc[K kv.Key] struct {
	t *rangeidx.Tree[K]
	p int
}

func (f treeBatchFunc[K]) Partition(k K) int {
	q := f.t.Partition(k)
	if q >= f.p {
		q = f.p - 1
	}
	return q
}

func (f treeBatchFunc[K]) Fanout() int { return f.p }

func (f treeBatchFunc[K]) LookupBatch(keys []K, out []int32) {
	f.t.LookupBatch(keys, out)
}
