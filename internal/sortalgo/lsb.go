package sortalgo

import (
	"math/bits"

	"repro/internal/fault"
	"repro/internal/hard"
	"repro/internal/kv"
	"repro/internal/numa"
	"repro/internal/obs"
	"repro/internal/part"
	"repro/internal/pfunc"
	"repro/internal/rangeidx"
	"repro/internal/splitter"
)

// LSB is the stable least-significant-bit radix-sort of Section 4.2.1,
// NUMA-aware: the first pass partitions by a hybrid range-radix function —
// a C-way range split (sampled delimiters, perfect load balance across
// regions regardless of the key distribution) concatenated with low-order
// radix bits — after which one shuffle moves every tuple across the NUMA
// interconnect at most once; all later passes are region-local radix
// partitioning. Sorting is stable: payloads of equal keys keep their input
// order.
//
// tmpK/tmpV is the linear auxiliary space (same length as keys); the
// sorted result lands back in keys/vals.
func LSB[K kv.Key](keys, vals, tmpK, tmpV []K, opt Options) {
	opt = opt.withDefaults()
	primePool(opt)
	instrumentWS(opt.Stats, opt.Workspace, "lsb", func() {
		lsbRun(keys, vals, tmpK, tmpV, opt)
	})
}

// lsbRun is LSB after defaults and instrumentation setup.
func lsbRun[K kv.Key](keys, vals, tmpK, tmpV []K, opt Options) {
	n := len(keys)
	if n <= 1 {
		return
	}
	st := opt.Stats
	ctl := opt.Ctl

	// Permutation restore on failure: during the cross-region shuffle keys
	// is progressively overwritten from tmp, which still holds every tuple
	// of the completed first pass, so copying tmp back makes keys a
	// permutation of the input again. In every other window either keys is
	// untouched (the first-pass scatter reads keys and writes tmp) or a
	// narrower handler — the per-region local drivers — has already restored
	// its own segment before the panic reaches this frame.
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

	domainBits := timedInt(st, "lsb", phHistogram, func() int {
		return kv.DomainBits(keys)
	})
	if opt.RadixBits < 1 {
		opt.RadixBits, _ = lsbWidth(n, domainBits)
	}

	c := opt.regions()
	if c == 1 || opt.Oblivious {
		lsbLocalN(keys, vals, tmpK, tmpV, 0, domainBits, opt, opt.Threads, phLocal)
		return
	}

	b := min(opt.RadixBits, domainBits)

	// Step 1: sample C-1 range delimiters that split the data evenly
	// across the C NUMA regions, then refine duplicates: a key sampled
	// twice or more is skewed enough to unbalance the C-way split, so it
	// gets a single-key range of its own whose tuples can be placed with
	// any region group (Section 5 / [13]). The resulting R >= C ranges are
	// grouped into C contiguous runs of near-equal tuple count after the
	// histograms are known. R is small, so the range part of the hybrid
	// function lives in a register-resident delimiter array (Section
	// 3.5.1), not the cache-resident tree.
	// Oversample to ~4C ranges (the LSB analog of MSB's T+T' trick): finer
	// ranges give the grouping step the granularity to balance regions
	// even when quantile sampling of low-entropy domains wastes splits.
	rangeTarget := min(4*c, maxRegDelims+1)
	var fn1 rangeRadix[K]
	timed(st, "lsb", phHistogram, func() {
		delims, _ := splitter.RefineDuplicates(splitter.ForThreads(keys, rangeTarget, opt.Seed))
		if len(delims) > maxRegDelims {
			delims = delims[:maxRegDelims]
		}
		fn1 = newRangeRadix(delims, len(delims)+1, pfunc.NewRadix[K](0, uint(b)))
	})
	rr := fn1.rp // number of ranges R (>= C when heavy keys were isolated)

	// Step 2: range-radix partition locally on each NUMA region into the
	// region's own segment of the auxiliary array.
	topo := opt.Topo
	w := opt.Workspace
	inBounds := equalBounds(n, c)
	tpr := threadsPerRegion(opt)
	regionHists := make([][][]int, c) // [region][thread][partition], pooled
	regionChunks := make([][]int, c)  // per-region worker bounds, pooled
	ctl.CheckpointNow()
	fault.Inject(fault.SiteLSBPass)
	timed(st, "lsb", phHistogram, func() {
		g := hard.NewGroup(ctl)
		for r := 0; r < c; r++ {
			g.Go(func() {
				seg := keys[inBounds[r]:inBounds[r+1]]
				regionHists[r], regionChunks[r] = part.ParallelHistogramsCtlWS(w, seg, fn1, tpr, ctl)
			})
		}
		g.Wait()
	})
	pass0 := obs.BeginPassIn("lsb", 0, -1)
	timed(st, "lsb", phPartition, func() {
		g := hard.NewGroup(ctl)
		for r := 0; r < c; r++ {
			g.Go(func() {
				lo, hi := inBounds[r], inBounds[r+1]
				part.ParallelScatterBoundsCtlWS(w, keys[lo:hi], vals[lo:hi], tmpK[lo:hi], tmpV[lo:hi], fn1, regionHists[r], 0, regionChunks[r], ctl)
			})
		}
		g.Wait()
	})

	// Step 3: shuffle the ranges across regions: partition-major global
	// layout, pieces ordered by source region for stability. The R ranges
	// are grouped into C contiguous runs of near-equal tuple count (range
	// order preserved, so the global order stays a concatenation), and the
	// destination region of partition pid is its range's group.
	np := fn1.Fanout()
	perRegion := w.Matrix(c, np) // merged per-region histograms
	for r := 0; r < c; r++ {
		part.MergeHistogramsInto(perRegion[r], regionHists[r])
		w.PutMatrix(regionHists[r])
		w.PutInts(regionChunks[r])
	}
	rangeTotals := make([]int, rr)
	for r := 0; r < c; r++ {
		for pid, h := range perRegion[r] {
			rangeTotals[pid>>b] += h
		}
	}
	groupOf := groupRanges(rangeTotals, n, c)
	// dstOff[r][pid]: where region r's piece of pid lands in the output.
	dstOff := w.Matrix(c, np)
	outBounds := make([]int, c+1) // output segment bounds per region group
	o := 0
	prevGroup := 0
	for pid := 0; pid < np; pid++ {
		if pid%(1<<b) == 0 {
			for gg := prevGroup + 1; gg <= groupOf[pid>>b]; gg++ {
				outBounds[gg] = o
			}
			prevGroup = groupOf[pid>>b]
		}
		for r := 0; r < c; r++ {
			dstOff[r][pid] = o
			o += perRegion[r][pid]
		}
	}
	for gg := prevGroup + 1; gg <= c; gg++ {
		outBounds[gg] = n
	}
	outBounds[c] = n
	ctl.CheckpointNow()
	fault.Inject(fault.SiteShuffleStart)
	inShuffle = true
	timed(st, "lsb", phShuffle, func() {
		numa.RunPerRegion(topo, tpr, func(w numa.Worker) {
			meter := topo.NewMeter()
			dst := int(w.Region)
			// Rotate the source order per destination (the all-to-all
			// schedule of [10], Section 3.3): in step s, region r reads
			// from region (r+s) mod C, so no source region is hammered by
			// every destination at once.
			srcStarts := opt.Workspace.Ints(np)
			for s := 0; s < c; s++ {
				src := (dst + s) % c
				part.StartsInto(srcStarts, perRegion[src])
				for pid := 0; pid < np; pid++ {
					// Round-robin partitions among the destination
					// region's threads.
					if groupOf[pid>>b] != dst || pid%tpr != w.Index {
						continue
					}
					cnt := perRegion[src][pid]
					if cnt == 0 {
						continue
					}
					// Interrupting between partition copies is safe: tmp
					// stays intact, and the lsbRun restore handler rebuilds
					// keys from it.
					ctl.Checkpoint()
					so := inBounds[src] + srcStarts[pid]
					do := dstOff[src][pid]
					copy(keys[do:do+cnt], tmpK[so:so+cnt])
					copy(vals[do:do+cnt], tmpV[so:so+cnt])
					meter.Record(numa.Region(src), w.Region, uint64(cnt*2*kv.Width[K]()/8))
				}
			}
			opt.Workspace.PutInts(srcStarts)
			meter.Flush()
		})
	})
	inShuffle = false
	w.PutMatrix(perRegion)
	w.PutMatrix(dstOff)
	pass0.EndN(int64(n))
	addRemoteBytes(topo.RemoteBytes())
	if st != nil {
		st.Passes++
		st.RemoteBytes = topo.RemoteBytes()
		st.RegionBounds = append([]int(nil), outBounds...)
	}

	// Step 4: remaining radix passes, region-local. The regions run
	// concurrently, so the whole step is timed once here (a per-region
	// Stats would race and double-count overlapping wall clock).
	regionOpt := opt
	regionOpt.Stats = nil
	timed(st, "lsb", phLocal, func() {
		g := hard.NewGroup(ctl)
		for r := 0; r < c; r++ {
			g.Go(func() {
				lo, hi := outBounds[r], outBounds[r+1]
				lsbLocal(keys[lo:hi], vals[lo:hi], tmpK[lo:hi], tmpV[lo:hi], b, domainBits, regionOpt, phLocal)
			})
		}
		g.Wait()
	})
	if st != nil {
		st.Passes += (domainBits - b + opt.RadixBits - 1) / opt.RadixBits
	}
}

// lsbWidth is LSB's radix width rule when RadixBits is unset. Buffered
// out-of-cache partitioning stays near its peak throughput up to about
// 2^10–2^12 partitions (Section 3.2, Figure 3), while every pass costs a
// full read and write of the data (Section 4.2.1), so wider digits pay
// as long as the histogram tables stay small next to n: the cap is
// log2(n)-5 bits, clamped to [8, 12]. The domain is then split into the
// fewest passes the cap allows, and those passes share the bits evenly —
// 64-bit keys at 2^16 tuples and up take six 11-bit passes instead of
// eight 8-bit ones. Narrow domains get narrower digits, never more
// passes. domainBits is at least 1, as kv.DomainBits reports.
func lsbWidth(n, domainBits int) (radixBits, passes int) {
	limit := min(max(bits.Len(uint(n))-1-5, 8), 12)
	passes = (domainBits + limit - 1) / limit
	return (domainBits + passes - 1) / passes, passes
}

// lsbLocal runs stable radix passes over bits [fromBit, domainBits) with
// the data currently in keys/vals, leaving the result in keys/vals, using
// this region's share of the worker budget.
func lsbLocal[K kv.Key](keys, vals, tmpK, tmpV []K, fromBit, domainBits int, opt Options, ph phase) {
	lsbLocalN(keys, vals, tmpK, tmpV, fromBit, domainBits, opt, threadsPerRegion(opt), ph)
}

// fusedCellBudget caps the per-worker joint-histogram cells of the fused
// LSB path: 2^12 ints = 32 KiB, the private-cache footprint below which the
// joint increments are effectively free. Larger joint tables (e.g. 8-bit
// passes: 3 x 2^16 cells = 1.5 MiB per worker) turn every
// increment into a cache miss that costs more than the sequential per-pass
// histogram scans they replace, so the driver falls back. On machines where
// the scans are the bottleneck (many cores saturating memory bandwidth, the
// paper's setting) a larger budget shifts the trade toward fusion.
const fusedCellBudget = 1 << 12

// lsbLocalN is lsbLocal with an explicit worker count. It picks among three
// drivers:
//
//   - fused single-threaded (workspace only): all pass histograms in one
//     scan (Section 4.2.1 — radix histograms are value-based, so reordering
//     between passes cannot change them), tables held in the workspace, and
//     direct kernel calls; zero steady-state allocations;
//   - fused parallel (workspace only): one parallel read computes pass-0
//     per-worker histograms plus joint digit-pair histograms, from which
//     every later pass's per-worker histograms are derived without
//     re-scanning (Section 4.2.1 generalized to threads), gated on the
//     joint tables staying cache-resident;
//   - per-pass: re-scan for histograms before every pass — the pre-workspace
//     behavior and the fallback whenever no workspace exists (buffers are
//     then allocated per call, as before).
func lsbLocalN[K kv.Key](keys, vals, tmpK, tmpV []K, fromBit, domainBits int, opt Options, threads int, ph phase) {
	n := len(keys)
	if n <= 1 || fromBit >= domainBits {
		return
	}
	if threads < 1 {
		threads = 1
	}

	var rangesArr [part.MaxRadixPasses][2]uint
	m := 0
	for lo := fromBit; lo < domainBits; lo += opt.RadixBits {
		hi := min(lo+opt.RadixBits, domainBits)
		rangesArr[m] = [2]uint{uint(lo), uint(hi)}
		m++
	}
	ranges := rangesArr[:m]

	switch {
	case threads == 1 && opt.Workspace != nil:
		lsbSingle(keys, vals, tmpK, tmpV, ranges, opt, ph)
	case threads > 1 && opt.Workspace != nil && m > 1 && part.FusedJointCells(ranges) <= fusedCellBudget:
		lsbFused(keys, vals, tmpK, tmpV, ranges, opt, threads, ph)
	default:
		lsbPerPass(keys, vals, tmpK, tmpV, ranges, opt, threads, ph)
	}
}

// lsbRestore is the shared deferred restore handler of the LSB pass
// drivers. On panic the in-flight scatter's destination is partial but its
// source is untouched and still holds every tuple, so when the last
// completed pass left the data in the auxiliary arrays (*srcK aliases tmp,
// not keys) copying the source back makes keys a permutation of the input
// again before the wrapped panic re-raises.
func lsbRestore[K kv.Key](keys, vals []K, srcK, srcV *[]K) {
	e := recover()
	if e == nil {
		return
	}
	if s := *srcK; len(s) > 0 && &s[0] != &keys[0] {
		copy(keys, s)
		copy(vals, *srcV)
	}
	panic(hard.NewPanic(e))
}

// lsbPassCopyback moves the result to keys/vals when the final swap left it
// in the auxiliary arrays.
func lsbPassCopyback[K kv.Key](keys, vals, srcK, srcV []K, st *Stats, ph phase) {
	if &srcK[0] != &keys[0] {
		timed(st, "lsb", ph, func() {
			copy(keys, srcK)
			copy(vals, srcV)
		})
	}
}

// lsbSingle is the single-threaded driver: one histogram scan for all
// passes (accumulated into the flat padded layout so the per-pass rows stay
// cache-set disjoint during the scan), then one buffered scatter per pass,
// all scratch pooled. Zero heap allocations in steady state with a warm
// workspace.
func lsbSingle[K kv.Key](keys, vals, tmpK, tmpV []K, ranges [][2]uint, opt Options, ph phase) {
	n := len(keys)
	st := opt.Stats
	w := opt.Workspace
	ctl := opt.Ctl
	srcK, srcV := keys, vals
	dstK, dstV := tmpK, tmpV
	defer lsbRestore(keys, vals, &srcK, &srcV)
	maxP := 0
	for _, rg := range ranges {
		maxP = max(maxP, 1<<(rg[1]-rg[0]))
	}
	var rowsArr [part.MaxRadixPasses][]int
	rows := rowsArr[:len(ranges)]
	flat := w.Ints(part.MultiHistogramFlatLen(ranges))
	timed(st, "lsb", phHistogram, func() {
		part.MultiHistogramFlatInto(rows, flat, keys, ranges)
	})
	starts := w.Ints(maxP)
	for pass, rg := range ranges {
		ctl.CheckpointNow()
		fault.Inject(fault.SiteLSBPass)
		fn := pfunc.NewRadix[K](rg[0], rg[1])
		p := 1 << (rg[1] - rg[0])
		part.StartsInto(starts[:p], rows[pass])
		sk, sv, dk, dv := srcK, srcV, dstK, dstV
		sp := obs.BeginPassIn("lsb", int(rg[0])/opt.RadixBits, -1)
		timed(st, "lsb", ph, func() {
			wsp := obs.BeginIn("lsb", "scatter", "worker", 0)
			part.NonInPlaceOutOfCacheCtlWS(w, sk, sv, dk, dv, fn, starts[:p], ctl)
			wsp.EndN(int64(n))
		})
		sp.EndN(int64(n))
		if st != nil {
			st.Passes++
		}
		srcK, dstK = dstK, srcK
		srcV, dstV = dstV, srcV
	}
	lsbPassCopyback(keys, vals, srcK, srcV, st, ph)
	w.PutInts(flat)
	w.PutInts(starts)
}

// lsbPerPass is the per-pass parallel driver: per-chunk histograms of the
// current arrangement are recomputed before every scatter (they change as
// the data moves). With a workspace, tables and line buffers are pooled and
// workers run on the persistent pool; without one, behavior matches the
// pre-workspace code (fresh tables, fresh goroutines).
func lsbPerPass[K kv.Key](keys, vals, tmpK, tmpV []K, ranges [][2]uint, opt Options, threads int, ph phase) {
	n := len(keys)
	st := opt.Stats
	w := opt.Workspace
	ctl := opt.Ctl
	srcK, srcV := keys, vals
	dstK, dstV := tmpK, tmpV
	defer lsbRestore(keys, vals, &srcK, &srcV)
	for _, rg := range ranges {
		ctl.CheckpointNow()
		fault.Inject(fault.SiteLSBPass)
		fn := pfunc.NewRadix[K](rg[0], rg[1])
		var hists [][]int
		var bounds []int
		sk, sv, dk, dv := srcK, srcV, dstK, dstV
		timed(st, "lsb", phHistogram, func() {
			hists, bounds = part.ParallelHistogramsCtlWS(w, sk, fn, threads, ctl)
		})
		sp := obs.BeginPassIn("lsb", int(rg[0])/opt.RadixBits, -1)
		timed(st, "lsb", ph, func() {
			part.ParallelScatterBoundsCtlWS(w, sk, sv, dk, dv, fn, hists, 0, bounds, ctl)
		})
		sp.EndN(int64(n))
		if st != nil {
			st.Passes++
		}
		w.PutMatrix(hists)
		w.PutInts(bounds)
		srcK, dstK = dstK, srcK
		srcV, dstV = dstV, srcV
	}
	lsbPassCopyback(keys, vals, srcK, srcV, st, ph)
}

// lsbFused is the fused-histogram parallel driver. One parallel read
// (part.FusedHistograms) yields pass-0 per-worker histograms and global
// joint digit-pair histograms. For pass k >= 1 the data is already grouped
// by the previous pass's digit, so worker chunks are aligned to
// digit-group boundaries (balanced with the same midpoint rule as the NUMA
// range grouping) and each worker's pass-k histogram is the sum of the
// joint rows of the digits it owns — no re-scan. Workers process whole
// digit groups in position order, so stability is preserved.
func lsbFused[K kv.Key](keys, vals, tmpK, tmpV []K, ranges [][2]uint, opt Options, threads int, ph phase) {
	n := len(keys)
	st := opt.Stats
	w := opt.Workspace
	ctl := opt.Ctl
	m := len(ranges)
	maxP := 0
	for _, rg := range ranges {
		maxP = max(maxP, 1<<(rg[1]-rg[0]))
	}

	srcK, srcV := keys, vals
	dstK, dstV := tmpK, tmpV
	defer lsbRestore(keys, vals, &srcK, &srcV)

	bounds0 := part.ChunkBoundsInto(w.Ints(threads+1), n)
	var h0, joints [][]int
	timed(st, "lsb", phHistogram, func() {
		h0, joints = part.FusedHistogramsCtl(w, keys, ranges, bounds0, ctl)
	})

	runPass := func(pass int, hists [][]int, bounds []int) {
		ctl.CheckpointNow()
		fault.Inject(fault.SiteLSBPass)
		rg := ranges[pass]
		fn := pfunc.NewRadix[K](rg[0], rg[1])
		sk, sv, dk, dv := srcK, srcV, dstK, dstV
		sp := obs.BeginPassIn("lsb", int(rg[0])/opt.RadixBits, -1)
		timed(st, "lsb", ph, func() {
			part.ParallelScatterBoundsCtlWS(w, sk, sv, dk, dv, fn, hists, 0, bounds, ctl)
		})
		sp.EndN(int64(n))
		if st != nil {
			st.Passes++
		}
		srcK, dstK = dstK, srcK
		srcV, dstV = dstV, srcV
	}

	runPass(0, h0, bounds0)

	totals := w.Ints(maxP)  // per-digit totals of the previous pass
	groupOf := w.Ints(maxP) // previous-pass digit -> owning worker
	bounds := w.Ints(threads + 1)
	prevP := len(h0[0])
	for k := 1; k < m; k++ {
		p := 1 << (ranges[k][1] - ranges[k][0])
		joint := joints[k-1] // prevP x p, flat
		g := totals[:prevP]
		for d := 0; d < prevP; d++ {
			s := 0
			for _, c := range joint[d*p : (d+1)*p] {
				s += c
			}
			g[d] = s
		}
		groupRangesInto(groupOf[:prevP], g, n, threads)
		hists := w.Matrix(threads, p)
		for t := range hists {
			clear(hists[t])
		}
		bounds[0] = 0
		pos, cur := 0, 0
		for d := 0; d < prevP; d++ {
			for cur < groupOf[d] {
				cur++
				bounds[cur] = pos
			}
			hrow := hists[groupOf[d]]
			for x, c := range joint[d*p : (d+1)*p] {
				hrow[x] += c
			}
			pos += g[d]
		}
		for cur < threads {
			cur++
			bounds[cur] = pos
		}
		runPass(k, hists, bounds)
		w.PutMatrix(hists)
		prevP = p
	}
	lsbPassCopyback(keys, vals, srcK, srcV, st, ph)
	w.PutMatrix(h0)
	w.PutMatrix(joints)
	w.PutInts(bounds0)
	w.PutInts(totals)
	w.PutInts(groupOf)
	w.PutInts(bounds)
}

// threadsPerRegion splits opt.Threads across the topology's regions
// (at least 1 each).
func threadsPerRegion(opt Options) int {
	t := opt.Threads / opt.regions()
	if t < 1 {
		t = 1
	}
	return t
}

// equalBounds splits n into c near-equal contiguous segments.
func equalBounds(n, c int) []int {
	return part.ChunkBounds(n, c)
}

// rangeRadix is the hybrid range-radix partition function of the sorts'
// first pass (Sections 4.2.1/4.2.2), with the small range part held in a
// fixed register-file-sized delimiter array searched by a branch-free
// lane-style count — the register-resident variant of Section 3.5.1. The
// concrete type keeps the hot partitioning loops free of dynamic dispatch.
type rangeRadix[K kv.Key] struct {
	delims [maxRegDelims]K
	nd     int
	rp     int // range fanout
	radix  pfunc.Radix[K]
}

// maxRegDelims bounds the register-resident delimiter set (the paper holds
// 16 delimiters in four SSE registers).
const maxRegDelims = 16

func newRangeRadix[K kv.Key](delims []K, rangeFanout int, radix pfunc.Radix[K]) rangeRadix[K] {
	if len(delims) > maxRegDelims {
		panic("sortalgo: too many register-resident delimiters")
	}
	f := rangeRadix[K]{nd: len(delims), rp: rangeFanout, radix: radix}
	for i := range f.delims {
		f.delims[i] = kv.MaxKey[K]()
	}
	copy(f.delims[:], delims)
	return f
}

func (f rangeRadix[K]) rangeOf(k K) int {
	r := 0
	for i := 0; i < f.nd; i++ {
		if f.delims[i] <= k {
			r++
		}
	}
	if r >= f.rp {
		r = f.rp - 1
	}
	return r
}

// Partition implements pfunc.Func: range result concatenated with the low
// radix bits.
func (f rangeRadix[K]) Partition(k K) int {
	return f.rangeOf(k)*f.radix.Fanout() + f.radix.Partition(k)
}

// Fanout implements pfunc.Func.
func (f rangeRadix[K]) Fanout() int {
	return f.rp * f.radix.Fanout()
}

// treeFunc adapts a range tree to pfunc.Func with a fixed fanout (the tree
// may have trailing empty partitions after delimiter padding).
type treeFunc[K kv.Key] struct {
	t *rangeidx.Tree[K]
	p int
}

func (f treeFunc[K]) Partition(k K) int {
	q := f.t.Partition(k)
	if q >= f.p {
		q = f.p - 1
	}
	return q
}

func (f treeFunc[K]) Fanout() int { return f.p }
