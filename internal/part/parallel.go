package part

import (
	"repro/internal/hard"
	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/pfunc"
	"repro/internal/ws"
)

// ChunkBounds splits n items into `workers` near-equal contiguous chunks
// and returns the workers+1 boundary offsets.
func ChunkBounds(n, workers int) []int {
	return ChunkBoundsInto(make([]int, workers+1), n)
}

// ChunkBoundsInto is ChunkBounds into a caller-provided (pooled) array of
// length workers+1.
func ChunkBoundsInto(bounds []int, n int) []int {
	workers := len(bounds) - 1
	if workers < 1 {
		panic("part: need at least one worker")
	}
	for t := 0; t <= workers; t++ {
		bounds[t] = t * n / workers
	}
	return bounds
}

// histRunner is the worker-pool driver of ParallelHistograms: one object
// reused across Runs (via ws.Scratch) so a pass costs zero allocations.
type histRunner[K kv.Key, F pfunc.Func[K]] struct {
	keys   []K
	fn     F
	bounds []int
	hists  [][]int
	ctl    *hard.Ctl
}

func (r *histRunner[K, F]) RunTask(t int) {
	lo, hi := r.bounds[t], r.bounds[t+1]
	sp := obs.Begin("histogram", "worker", t)
	clear(r.hists[t])
	// Histogramming is read-only on the keys, so checkpointed sub-chunks
	// are interruption-safe.
	for c := lo; c < hi; c += hard.CkptTuples {
		r.ctl.Checkpoint()
		histogramAccum(r.hists[t], r.keys[c:min(c+hard.CkptTuples, hi)], r.fn)
	}
	sp.EndN(int64(hi - lo))
}

// ParallelHistograms computes one histogram per worker over that worker's
// input chunk. Workers synchronize only after the histograms are built —
// the single barrier of parallel non-in-place partitioning.
func ParallelHistograms[K kv.Key, F pfunc.Func[K]](keys []K, fn F, workers int) [][]int {
	hists := make([][]int, workers)
	for t := range hists {
		hists[t] = make([]int, fn.Fanout())
	}
	parallelHistogramsInto(nil, hists, ChunkBounds(len(keys), workers), keys, fn, nil)
	return hists
}

// ParallelHistogramsWS is ParallelHistograms on the workspace's worker pool
// with a pooled histogram matrix and chunk-bound array. The caller returns
// them with PutMatrix and PutInts.
func ParallelHistogramsWS[K kv.Key, F pfunc.Func[K]](w *ws.Workspace, keys []K, fn F, workers int) (hists [][]int, bounds []int) {
	return ParallelHistogramsCtlWS(w, keys, fn, workers, nil)
}

// ParallelHistogramsCtlWS is ParallelHistogramsWS under a cancellation
// control: workers checkpoint every hard.CkptTuples tuples (a nil ctl
// never stops).
func ParallelHistogramsCtlWS[K kv.Key, F pfunc.Func[K]](w *ws.Workspace, keys []K, fn F, workers int, ctl *hard.Ctl) (hists [][]int, bounds []int) {
	hists = w.Matrix(workers, fn.Fanout())
	bounds = ChunkBoundsInto(w.Ints(workers+1), len(keys))
	parallelHistogramsInto(w, hists, bounds, keys, fn, ctl)
	return hists, bounds
}

func parallelHistogramsInto[K kv.Key, F pfunc.Func[K]](w *ws.Workspace, hists [][]int, bounds []int, keys []K, fn F, ctl *hard.Ctl) {
	r := ws.Scratch[histRunner[K, F]](w, ws.SlotParHist)
	*r = histRunner[K, F]{keys: keys, fn: fn, bounds: bounds, hists: hists, ctl: ctl}
	ws.RunWorkersCtl(w, len(hists), r, ctl)
	*r = histRunner[K, F]{}
	ws.PutScratch(w, ws.SlotParHist, r)
}

// histCodesRunner drives ParallelHistogramsCodesCtlWS on the pool.
type histCodesRunner[K kv.Key, F pfunc.Func[K]] struct {
	keys   []K
	fn     F
	codes  []int32
	bounds []int
	hists  [][]int
	ctl    *hard.Ctl
}

func (r *histCodesRunner[K, F]) RunTask(t int) {
	lo, hi := r.bounds[t], r.bounds[t+1]
	sp := obs.Begin("histogram-codes", "worker", t)
	clear(r.hists[t])
	// Checkpoint every hard.CkptTuples tuples: histogramming is read-only
	// on the keys, so interruption anywhere is safe.
	bl, batch := any(r.fn).(BatchLookuper[K])
	for c := lo; c < hi; c += hard.CkptTuples {
		r.ctl.Checkpoint()
		e := min(c+hard.CkptTuples, hi)
		if batch {
			histogramCodesBatchAccum(r.hists[t], r.keys[c:e], bl, r.codes[c:e])
		} else {
			for i, k := range r.keys[c:e] {
				p := r.fn.Partition(k)
				r.codes[c+i] = int32(p)
				r.hists[t][p]++
			}
		}
	}
	sp.EndN(int64(hi - lo))
}

// ParallelHistogramsCodesCtlWS is ParallelHistogramsCtlWS that also
// records each tuple's partition code (for range partitioning), on the
// workspace's worker pool with pooled outputs (PutMatrix/PutInts to
// release; a nil workspace allocates).
func ParallelHistogramsCodesCtlWS[K kv.Key, F pfunc.Func[K]](w *ws.Workspace, keys []K, fn F, codes []int32, workers int, ctl *hard.Ctl) (hists [][]int, bounds []int) {
	hists = w.Matrix(workers, fn.Fanout())
	bounds = ChunkBoundsInto(w.Ints(workers+1), len(keys))
	r := ws.Scratch[histCodesRunner[K, F]](w, ws.SlotParHistCodes)
	*r = histCodesRunner[K, F]{keys: keys, fn: fn, codes: codes, bounds: bounds, hists: hists, ctl: ctl}
	ws.RunWorkersCtl(w, workers, r, ctl)
	*r = histCodesRunner[K, F]{}
	ws.PutScratch(w, ws.SlotParHistCodes, r)
	return hists, bounds
}

// MergeHistograms sums per-worker histograms into the global histogram.
func MergeHistograms(hists [][]int) []int {
	return MergeHistogramsInto(make([]int, len(hists[0])), hists)
}

// MergeHistogramsInto is MergeHistograms into a caller-provided (pooled,
// reused across passes) output of the histogram length, cleared here.
func MergeHistogramsInto(total []int, hists [][]int) []int {
	clear(total)
	for _, h := range hists {
		for p, c := range h {
			total[p] += c
		}
	}
	return total
}

// ThreadStarts turns per-worker histograms into per-worker output start
// offsets via the prefix sum of Section 3.2.1: partition p's output is a
// single segment at base+Σ_{q<p} total[q], and worker t's share of it
// starts after workers 0..t-1's shares. The second return value is the
// global per-partition start (including base).
func ThreadStarts(hists [][]int, base int) ([][]int, []int) {
	workers := len(hists)
	np := len(hists[0])
	starts := make([][]int, workers)
	for t := range starts {
		starts[t] = make([]int, np)
	}
	return ThreadStartsInto(starts, make([]int, np), hists, base)
}

// ThreadStartsInto is ThreadStarts into caller-provided (pooled) tables:
// starts is workers x np, global has length np; both are fully overwritten.
func ThreadStartsInto(starts [][]int, global []int, hists [][]int, base int) ([][]int, []int) {
	workers := len(hists)
	np := len(hists[0])
	o := base
	for p := 0; p < np; p++ {
		global[p] = o
		for t := 0; t < workers; t++ {
			starts[t][p] = o
			o += hists[t][p]
		}
	}
	return starts, global
}

// scatterRunner drives the data-movement half of parallel non-in-place
// partitioning on the pool.
type scatterRunner[K kv.Key, F pfunc.Func[K]] struct {
	srcK, srcV, dstK, dstV []K
	fn                     F
	bounds                 []int
	starts                 [][]int
	stage                  workerStaging[K]
	ctl                    *hard.Ctl
}

func (r *scatterRunner[K, F]) RunTask(t int) {
	lo, hi := r.bounds[t], r.bounds[t+1]
	sp := obs.Begin("scatter", "worker", t)
	buf, off := r.stage.worker(t)
	scatterOutOfCache(r.srcK[lo:hi], r.srcV[lo:hi], r.dstK, r.dstV, r.fn, r.starts[t], buf, off, r.ctl)
	sp.EndN(int64(hi - lo))
}

// ParallelNonInPlace partitions srcK/srcV into a single shared segment of
// dstK/dstV using `workers` goroutines: per-worker histograms, one prefix-sum
// barrier, then each worker runs buffered non-in-place partitioning
// (Algorithm 3) on its chunk into its disjoint output shares. The output is
// stable. Returns the global histogram.
func ParallelNonInPlace[K kv.Key, F pfunc.Func[K]](srcK, srcV, dstK, dstV []K, fn F, workers int) []int {
	hists := ParallelHistograms(srcK, fn, workers)
	ParallelScatter(srcK, srcV, dstK, dstV, fn, hists, 0)
	return MergeHistograms(hists)
}

// ParallelNonInPlaceCtl is ParallelNonInPlace under a (possibly nil)
// workspace and cancellation control: the error-returning TryPartition
// path. Interruption or failure never touches src, so the caller's input
// stays intact by construction.
func ParallelNonInPlaceCtl[K kv.Key, F pfunc.Func[K]](w *ws.Workspace, srcK, srcV, dstK, dstV []K, fn F, workers int, ctl *hard.Ctl) []int {
	hists, bounds := ParallelHistogramsCtlWS(w, srcK, fn, workers, ctl)
	ctl.Checkpoint()
	ParallelScatterBoundsCtlWS(w, srcK, srcV, dstK, dstV, fn, hists, 0, bounds, ctl)
	total := MergeHistograms(hists)
	w.PutMatrix(hists)
	w.PutInts(bounds)
	return total
}

// ParallelScatter is the data-movement half of ParallelNonInPlace: given
// per-worker histograms already computed over ChunkBounds(len(srcK),
// len(hists)) chunks, scatter the tuples into dst. Callers that need the
// histogram and movement phases timed separately use
// ParallelHistograms + ParallelScatter.
func ParallelScatter[K kv.Key, F pfunc.Func[K]](srcK, srcV, dstK, dstV []K, fn F, hists [][]int, base int) {
	ParallelScatterWS(nil, srcK, srcV, dstK, dstV, fn, hists, base)
}

// ParallelScatterWS is ParallelScatter on the workspace's pool with pooled
// offset tables and line buffers.
func ParallelScatterWS[K kv.Key, F pfunc.Func[K]](w *ws.Workspace, srcK, srcV, dstK, dstV []K, fn F, hists [][]int, base int) {
	bounds := ChunkBoundsInto(w.Ints(len(hists)+1), len(srcK))
	ParallelScatterBoundsWS(w, srcK, srcV, dstK, dstV, fn, hists, base, bounds)
	w.PutInts(bounds)
}

// ParallelScatterBoundsWS is ParallelScatterWS with explicit per-worker
// input bounds (len(hists)+1 offsets): hists[t] must be the histogram of
// srcK[bounds[t]:bounds[t+1]]. The fused-histogram LSB path uses it to
// align worker chunks to digit-group boundaries of the previous pass.
func ParallelScatterBoundsWS[K kv.Key, F pfunc.Func[K]](w *ws.Workspace, srcK, srcV, dstK, dstV []K, fn F, hists [][]int, base int, bounds []int) {
	ParallelScatterBoundsCtlWS(w, srcK, srcV, dstK, dstV, fn, hists, base, bounds, nil)
}

// ParallelScatterBoundsCtlWS is ParallelScatterBoundsWS under a
// cancellation control: scatter workers checkpoint every hard.CkptTuples
// tuples. Interruption leaves src intact (only disjoint dst shares are
// partially written), so the sort drivers' restore defers recover the
// permutation from src.
func ParallelScatterBoundsCtlWS[K kv.Key, F pfunc.Func[K]](w *ws.Workspace, srcK, srcV, dstK, dstV []K, fn F, hists [][]int, base int, bounds []int, ctl *hard.Ctl) {
	workers := len(hists)
	np := len(hists[0])
	starts := w.Matrix(workers, np)
	global := w.Ints(np)
	ThreadStartsInto(starts, global, hists, base)
	stage := newWorkerStaging[K](w, workers, np)
	r := ws.Scratch[scatterRunner[K, F]](w, ws.SlotScatter)
	*r = scatterRunner[K, F]{srcK: srcK, srcV: srcV, dstK: dstK, dstV: dstV, fn: fn, bounds: bounds, starts: starts, stage: stage, ctl: ctl}
	ws.RunWorkersCtl(w, workers, r, ctl)
	*r = scatterRunner[K, F]{}
	ws.PutScratch(w, ws.SlotScatter, r)
	stage.release(w)
	w.PutMatrix(starts)
	w.PutInts(global)
}

// scatterCodesRunner drives code-driven scatter on the pool.
type scatterCodesRunner[K kv.Key] struct {
	srcK, srcV, dstK, dstV []K
	codes                  []int32
	bounds                 []int
	starts                 [][]int
	stage                  workerStaging[K]
	ctl                    *hard.Ctl
}

func (r *scatterCodesRunner[K]) RunTask(t int) {
	lo, hi := r.bounds[t], r.bounds[t+1]
	sp := obs.Begin("scatter-codes", "worker", t)
	buf, off := r.stage.worker(t)
	scatterOutOfCacheCodes(r.srcK[lo:hi], r.srcV[lo:hi], r.dstK, r.dstV, r.codes[lo:hi], r.starts[t], buf, off, r.ctl)
	sp.EndN(int64(hi - lo))
}

// ParallelNonInPlaceCodesCtlWS is ParallelNonInPlace for precomputed
// partition codes (wide-fanout range partitioning), on the workspace's
// pool with pooled offset tables and line buffers (a nil workspace
// allocates). hists must be the per-worker histograms previously computed
// by ParallelHistogramsCodesCtlWS over the same chunk bounds. Scatter
// workers checkpoint ctl as in ParallelScatterBoundsCtlWS.
func ParallelNonInPlaceCodesCtlWS[K kv.Key](w *ws.Workspace, srcK, srcV, dstK, dstV []K, codes []int32, hists [][]int, base int, ctl *hard.Ctl) {
	workers := len(hists)
	np := len(hists[0])
	bounds := ChunkBoundsInto(w.Ints(workers+1), len(srcK))
	starts := w.Matrix(workers, np)
	global := w.Ints(np)
	ThreadStartsInto(starts, global, hists, base)
	stage := newWorkerStaging[K](w, workers, np)
	r := ws.Scratch[scatterCodesRunner[K]](w, ws.SlotScatterCodes)
	*r = scatterCodesRunner[K]{srcK: srcK, srcV: srcV, dstK: dstK, dstV: dstV, codes: codes, bounds: bounds, starts: starts, stage: stage, ctl: ctl}
	ws.RunWorkersCtl(w, workers, r, ctl)
	*r = scatterCodesRunner[K]{}
	ws.PutScratch(w, ws.SlotScatterCodes, r)
	stage.release(w)
	w.PutMatrix(starts)
	w.PutInts(global)
	w.PutInts(bounds)
}

// inplaceChunkRunner drives shared-nothing in-place partitioning on the pool.
type inplaceChunkRunner[K kv.Key, F pfunc.Func[K]] struct {
	w          *ws.Workspace
	keys, vals []K
	fn         F
	bounds     []int
	hists      [][]int
}

func (r *inplaceChunkRunner[K, F]) RunTask(t int) {
	lo, hi := r.bounds[t], r.bounds[t+1]
	sp := obs.Begin("inplace-chunk", "worker", t)
	InPlaceOutOfCacheWS(r.w, r.keys[lo:hi], r.vals[lo:hi], r.fn, r.hists[t])
	sp.EndN(int64(hi - lo))
}

// ParallelInPlaceSharedNothing runs in-place out-of-cache partitioning
// (Algorithm 4) on `workers` contiguous chunks independently, producing T
// contiguous segments per partition — acceptable for recursive sorts, and
// the only way to parallelize in-place partitioning with coarse
// synchronization (Section 3.2.2). It returns the per-worker histograms and
// chunk bounds so callers can locate each worker's segments.
func ParallelInPlaceSharedNothing[K kv.Key, F pfunc.Func[K]](keys, vals []K, fn F, workers int) ([][]int, []int) {
	return ParallelInPlaceSharedNothingWS(nil, keys, vals, fn, workers)
}

// ParallelInPlaceSharedNothingWS is ParallelInPlaceSharedNothing on the
// workspace's pool; the returned histogram matrix and bound array are
// pooled (PutMatrix/PutInts when done).
func ParallelInPlaceSharedNothingWS[K kv.Key, F pfunc.Func[K]](w *ws.Workspace, keys, vals []K, fn F, workers int) ([][]int, []int) {
	var hists, bounds = [][]int(nil), []int(nil)
	if w == nil {
		hists = ParallelHistograms(keys, fn, workers)
		bounds = ChunkBounds(len(keys), workers)
	} else {
		hists, bounds = ParallelHistogramsWS(w, keys, fn, workers)
	}
	r := ws.Scratch[inplaceChunkRunner[K, F]](w, ws.SlotInPlaceChunk)
	*r = inplaceChunkRunner[K, F]{w: w, keys: keys, vals: vals, fn: fn, bounds: bounds, hists: hists}
	ws.RunWorkers(w, workers, r)
	*r = inplaceChunkRunner[K, F]{}
	ws.PutScratch(w, ws.SlotInPlaceChunk, r)
	return hists, bounds
}
