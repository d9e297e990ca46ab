package part

import (
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/hard"
	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/pfunc"
	"repro/internal/ws"
)

// This file implements the in-place parallel out-of-cache partition on
// swapped blocks (the block-permutation phase of IPS⁴o, Axtmann et al.,
// adapted to the paper's Algorithm-5 claim-counter protocol): instead of
// materializing per-partition block lists in auxiliary memory and copying
// back (blocks.go + blockshuffle.go), the input array itself is treated as a
// sequence of B-tuple slots and permuted in place. Auxiliary memory is
// O(workers × fanout × B) buffer blocks — independent of n — so peak memory
// on the parallel MSB/CMP fan-out paths drops from ~2× the input to ~1×.
//
// Three phases over the slot array (nSlots = n/B full slots plus a < B tail):
//
//  1. Classify. Each worker owns a slot-aligned chunk and scans it left to
//     right, moving every tuple into one of its fanout thread-local buffer
//     blocks. When a buffer fills, it is flushed back into the chunk at the
//     worker's write pointer — always at or behind the read position, since
//     flushed tuples never outnumber consumed ones — and the slot is labeled
//     with its partition in slotPart. Slots behind the write pointer at the
//     end are "vacant": their content lives on in the buffers.
//
//  2. Permute. starts[] (derived from the slot labels plus buffer fill
//     levels) induces one destination stripe of ⌊hist[p]/B⌋-ish full slots
//     per partition; the slots covered by no stripe form the "gap", treated
//     as one extra garbage partition that collects vacant slots. Workers
//     claim slots with one atomic counter per partition and follow swap
//     cycles exactly like SyncPermute (sync.go), at block granularity: the
//     hand is a whole block (or a vacancy), each hop claims one slot of the
//     hand's destination stripe and swaps, and a cycle closes when the hand
//     belongs to the cycle's start partition. A hand whose destination
//     counter is exhausted parks, and the offline fix-up matches parked
//     blocks to recorded open slots partition-for-partition.
//
//  3. Cleanup. Stripe p's full blocks sit at slot sLo[p] = ⌊starts[p]/B⌋,
//     up to B-1 tuples below starts[p]; walking partitions in descending
//     order, the straddling head is relocated to the end of the stripe and
//     every worker's partial buffer for p is appended, which lands each
//     partition exactly on [starts[p], starts[p+1]). Descending order makes
//     the writes safe: they intrude only into the next partition's already
//     relocated head and into garbage slots.
//
// Restorability (the Try/Ctx contract): the classify phase is exactly
// undone by streaming each worker's buffers back to its write pointer; the
// permute phase by storing in-flight hands into their recorded cycle-start
// slots, parked blocks into their recorded open slots (any bijection works
// — partition labels are irrelevant to being a permutation), and the
// buffers into the remaining vacant slots plus the tail. Like the legacy
// shuffle's pack loop, the cleanup interior is not restorable; its only
// panic source is the lost-tuples invariant, and the blocks/cleanup fault
// site sits immediately before the phase.

// permBatch is the classification sub-batch: partition codes are staged
// through a small per-worker code array (so radix, tree-batch and generic
// partition functions share one scatter loop) and the cancellation
// checkpoint runs between batches.
const permBatch = 256

// Phases of a blockPermRunner, selecting what RunTask does and how much the
// restore handler must undo.
const (
	bpClassify = iota
	bpPermute
	bpCleanup
)

// bpRec records one parked hand: the partition of the parked block (fanout
// means a parked vacancy), the unwritten cycle-start slot, and the
// partition of the stripe that slot belongs to.
type bpRec struct {
	part int
	slot int
	need int
}

// blockPermRunner is the pooled driver object (ws.SlotBlockPerm) behind
// BlockPermutePartitionCtl: one instance carries classify chunk workers,
// permute cycle workers, the restore state, and the park/record slices
// whose capacity survives between calls.
type blockPermRunner[K kv.Key, F pfunc.Func[K]] struct {
	keys, vals []K
	fn         F
	bl         BatchLookuper[K]
	hasBatch   bool
	isRadix    bool
	rShift     uint
	rMask      K
	ctl        *hard.Ctl

	n, b, f, np, nSlots, workers int
	phase                        int

	// Arena-drawn per call; released by the driver.
	bufK, bufV   []K      // workers × fanout × b buffer blocks, worker-major
	handK, handV []K      // workers × b in-flight hand blocks
	bufN         [][]int  // workers × fanout buffer fill levels
	slotPart     []int32  // per-slot partition label, -1 = vacant
	codes        []int32  // workers × permBatch staged partition codes
	gap          []int32  // slots covered by no stripe (garbage destinations)
	bounds       []int    // slot chunk bounds, workers+1
	wPtr         []int    // per-chunk flush cursor (slots)
	sLo          []int    // first stripe slot per partition
	need         []int    // per-partition claim budget (full blocks; [f] = gap)
	handSlot     []int    // per-worker open cycle-start slot, -1 = no hand
	handPart     []int    // per-worker hand partition (f = vacancy)
	used         []uint64 // per-partition atomic claim counters

	flushes atomic.Uint64
	claims  atomic.Uint64

	// Retained across calls: capacity is the steady state, length is reset.
	mu      sync.Mutex
	parkK   []K
	parkV   []K
	recs    []bpRec
	fixPlan []int
}

// RunTask dispatches on the current phase: classify chunk i or run permute
// worker i.
func (r *blockPermRunner[K, F]) RunTask(i int) {
	if r.phase == bpClassify {
		r.classifyChunk(i)
		return
	}
	r.permuteWorker(i)
}

// classifyChunk scans chunk t's slot range (plus the array tail for the
// last chunk), staging partition codes per sub-batch and moving each tuple
// into the worker's buffer block for its partition; full buffers flush back
// into the chunk at wPtr[t], which never passes the read position. The
// per-chunk state (wPtr, bufN) is always consistent at tuple granularity,
// so the restore handler can undo any prefix of the scan.
func (r *blockPermRunner[K, F]) classifyChunk(t int) {
	b, f := r.b, r.f
	keys, vals := r.keys, r.vals
	hasVals := vals != nil
	lo := r.bounds[t] * b
	hi := r.bounds[t+1] * b
	if t == r.workers-1 {
		hi = r.n
	}
	sp := obs.Begin("blockperm-classify", "worker", t)
	bufN := r.bufN[t]
	bufK, bufV := r.bufK, r.bufV
	base := t * f * b
	codes := r.codes[t*permBatch : (t+1)*permBatch]
	var flushes uint64
	for i := lo; i < hi; {
		m := hi - i
		if m > permBatch {
			m = permBatch
		}
		ck := keys[i : i+m]
		switch {
		case r.isRadix:
			shift, mask := r.rShift, r.rMask
			for j, k := range ck {
				codes[j] = int32((k >> shift) & mask)
			}
		case r.hasBatch:
			r.bl.LookupBatch(ck, codes[:m])
		default:
			for j, k := range ck {
				codes[j] = int32(r.fn.Partition(k))
			}
		}
		for j, k := range ck {
			p := int(codes[j])
			bi := base + p*b
			c := bufN[p]
			bufK[bi+c] = k
			if hasVals {
				bufV[bi+c] = vals[i+j]
			}
			c++
			if c == b {
				s := r.wPtr[t]
				copy(keys[s*b:s*b+b], bufK[bi:bi+b])
				if hasVals {
					copy(vals[s*b:s*b+b], bufV[bi:bi+b])
				}
				r.slotPart[s] = int32(p)
				r.wPtr[t] = s + 1
				flushes++
				c = 0
			}
			bufN[p] = c
		}
		i += m
		r.ctl.Checkpoint()
	}
	r.flushes.Add(flushes)
	sp.EndN(int64(hi - lo))
}

// permuteWorker drains the per-partition claim counters, starting each
// worker at a different partition to spread contention (the SyncPermute
// schedule at block granularity). A claimed slot whose content already
// matches its stripe — or a vacant slot claimed for the gap — is done; any
// other slot starts a swap cycle.
func (r *blockPermRunner[K, F]) permuteWorker(wi int) {
	sp := obs.Begin("blockperm-permute", "worker", wi)
	np := r.np
	var claims uint64
	for k := 0; k < np; k++ {
		p := (k + wi*np/r.workers) % np
		for {
			i := atomic.AddUint64(&r.used[p], 1) - 1
			if i >= uint64(r.need[p]) {
				break
			}
			claims++
			s := r.stripeSlot(p, int(i))
			q := r.slotPart[s]
			if int(q) == p || (q < 0 && p == r.f) {
				continue
			}
			claims += r.chase(wi, s, p)
		}
	}
	sp.EndN(int64(claims))
	r.claims.Add(claims)
}

// chase runs one swap cycle from start (a claimed slot of partition
// startPart): lift the block (or vacancy) out of the start slot, then
// repeatedly claim a slot of the hand's destination stripe and swap, until
// the hand belongs to startPart and closes the cycle at the start slot. A
// hand whose destination counter is exhausted parks under the mutex —
// vacant hands too, keeping parking tokens aligned with records — and the
// open start slot is recorded for the offline fix-up. Only the claimant
// ever touches a claimed slot, so the block moves need no locks.
func (r *blockPermRunner[K, F]) chase(wi, start, startPart int) uint64 {
	b, f := r.b, r.f
	keys, vals := r.keys, r.vals
	hasVals := vals != nil
	hk := r.handK[wi*b : wi*b+b]
	var hv []K
	if hasVals {
		hv = r.handV[wi*b : wi*b+b]
	}
	hp := f
	if q := r.slotPart[start]; q >= 0 {
		hp = int(q)
		copy(hk, keys[start*b:start*b+b])
		if hasVals {
			copy(hv, vals[start*b:start*b+b])
		}
	}
	r.handPart[wi] = hp
	r.handSlot[wi] = start
	r.slotPart[start] = -1
	var claims uint64
	for {
		fault.Inject(fault.SiteBlockPermute)
		r.ctl.Checkpoint()
		if hp == startPart {
			if hp < f {
				copy(keys[start*b:start*b+b], hk)
				if hasVals {
					copy(vals[start*b:start*b+b], hv)
				}
				r.slotPart[start] = int32(hp)
			}
			r.handSlot[wi] = -1
			return claims
		}
		i := atomic.AddUint64(&r.used[hp], 1) - 1
		if i >= uint64(r.need[hp]) {
			r.mu.Lock()
			r.parkK = append(r.parkK, hk...)
			if hasVals {
				r.parkV = append(r.parkV, hv...)
			}
			r.recs = append(r.recs, bpRec{part: hp, slot: start, need: startPart})
			r.mu.Unlock()
			r.handSlot[wi] = -1
			return claims
		}
		claims++
		d := r.stripeSlot(hp, int(i))
		dq := r.slotPart[d]
		switch {
		case hp < f && dq >= 0:
			swapBlockHand(keys[d*b:d*b+b], hk)
			if hasVals {
				swapBlockHand(vals[d*b:d*b+b], hv)
			}
			r.slotPart[d] = int32(hp)
			hp = int(dq)
		case hp < f:
			// Store into a vacant slot; the hand becomes the vacancy.
			copy(keys[d*b:d*b+b], hk)
			if hasVals {
				copy(vals[d*b:d*b+b], hv)
			}
			r.slotPart[d] = int32(hp)
			hp = f
		case dq >= 0:
			// Vacant hand, live gap slot: lift the block, leave the vacancy.
			copy(hk, keys[d*b:d*b+b])
			if hasVals {
				copy(hv, vals[d*b:d*b+b])
			}
			r.slotPart[d] = -1
			hp = int(dq)
		default:
			// Vacant hand into an already-vacant gap slot: nothing moves.
		}
		r.handPart[wi] = hp
	}
}

// stripeSlot maps (partition, claim index) to a slot: stripe p starts at
// sLo[p]; the garbage partition f walks the gap list.
func (r *blockPermRunner[K, F]) stripeSlot(p, i int) int {
	if p < r.f {
		return r.sLo[p] + i
	}
	return int(r.gap[i])
}

// swapBlockHand exchanges a slot's block with the hand, element-wise so no
// temporary block is needed.
func swapBlockHand[K kv.Key](slot, hand []K) {
	slot = slot[:len(hand)]
	for i := range hand {
		slot[i], hand[i] = hand[i], slot[i]
	}
}

// fixParked resolves parked hands after the permute phase: every record's
// open slot (in stripe need) is matched to a parked block of partition
// need, which the counting argument of SyncPermute guarantees to exist.
// The matching runs to completion before any tuple moves, so the invariant
// panic (never expected) still sees the unfixed state that restore() can
// undo; the placement loop after it has no panic sources.
func (r *blockPermRunner[K, F]) fixParked(w *ws.Workspace) {
	b, f := r.b, r.f
	keys, vals := r.keys, r.vals
	hasVals := vals != nil
	// Bucket records by the partition of their parked block, as linked
	// lists threaded through next[].
	bh := w.Ints(r.np)
	next := w.Ints(len(r.recs))
	for p := range bh {
		bh[p] = -1
	}
	for j, rec := range r.recs {
		next[j] = bh[rec.part]
		bh[rec.part] = j
	}
	plan := r.fixPlan[:0]
	for _, rec := range r.recs {
		k := bh[rec.need]
		if k < 0 {
			panic("part: block permutation fix-up invariant violated: no parked block for partition")
		}
		bh[rec.need] = next[k]
		plan = append(plan, k)
	}
	for j, rec := range r.recs {
		k := plan[j]
		if p := r.recs[k].part; p < f {
			copy(keys[rec.slot*b:rec.slot*b+b], r.parkK[k*b:k*b+b])
			if hasVals {
				copy(vals[rec.slot*b:rec.slot*b+b], r.parkV[k*b:k*b+b])
			}
			r.slotPart[rec.slot] = int32(p)
		}
		// A parked vacancy matches a gap-stripe slot, which is already
		// vacant: nothing to write.
	}
	w.PutInts(bh)
	w.PutInts(next)
	r.fixPlan = plan[:0]
	r.recs = r.recs[:0]
	r.parkK = r.parkK[:0]
	r.parkV = r.parkV[:0]
}

// cleanup walks partitions in descending order, relocating each stripe's
// straddling head to the stripe's end and appending every worker's partial
// buffer, landing partition p exactly on [starts[p], starts[p+1]). See the
// file comment for why descending order makes the writes safe. Not
// restorable (like the legacy shuffle's pack loop): the only panic source
// is the lost-tuples invariant.
func (r *blockPermRunner[K, F]) cleanup(starts []int) {
	b, f := r.b, r.f
	keys, vals := r.keys, r.vals
	hasVals := vals != nil
	for p := f - 1; p >= 0; p-- {
		o := starts[p]
		if fb := r.need[p]; fb > 0 {
			lo := r.sLo[p] * b
			if head := starts[p] - lo; head > 0 {
				copy(keys[lo+fb*b:lo+fb*b+head], keys[lo:lo+head])
				if hasVals {
					copy(vals[lo+fb*b:lo+fb*b+head], vals[lo:lo+head])
				}
			}
			o = starts[p] + fb*b
		}
		for t := 0; t < r.workers; t++ {
			m := r.bufN[t][p]
			if m == 0 {
				continue
			}
			base := t*f*b + p*b
			copy(keys[o:o+m], r.bufK[base:base+m])
			if hasVals {
				copy(vals[o:o+m], r.bufV[base:base+m])
			}
			o += m
		}
		if o != starts[p+1] {
			panic("part: block permutation lost tuples")
		}
	}
}

// restore rebuilds a permutation of the input after a mid-kernel panic. It
// runs on the driver with every worker already joined (RunWorkersCtl always
// waits), so plain writes suffice. Classify: stream each chunk's buffers
// back to its flush cursor — by construction the buffered tuple count of a
// chunk always equals the consumed-but-not-flushed span, at any panic
// point. Permute: store in-flight hands into their cycle-start slots,
// parked blocks into their recorded open slots (identity pairing — any
// bijection restores the permutation), then refill the remaining vacant
// slots and the tail from the buffers, which the vacancy-conservation
// argument sizes exactly. Allocations are fine here: this is the
// exceptional path.
func (r *blockPermRunner[K, F]) restore() {
	b, f := r.b, r.f
	keys, vals := r.keys, r.vals
	hasVals := vals != nil
	switch r.phase {
	case bpCleanup:
		return
	case bpClassify:
		for t := 0; t < r.workers; t++ {
			o := r.wPtr[t] * b
			base := t * f * b
			for p := 0; p < f; p++ {
				m := r.bufN[t][p]
				copy(keys[o:o+m], r.bufK[base+p*b:base+p*b+m])
				if hasVals {
					copy(vals[o:o+m], r.bufV[base+p*b:base+p*b+m])
				}
				o += m
			}
		}
		return
	}
	for wi := 0; wi < r.workers; wi++ {
		s := r.handSlot[wi]
		if s < 0 {
			continue
		}
		if hp := r.handPart[wi]; hp < f {
			copy(keys[s*b:s*b+b], r.handK[wi*b:wi*b+b])
			if hasVals {
				copy(vals[s*b:s*b+b], r.handV[wi*b:wi*b+b])
			}
			r.slotPart[s] = int32(hp)
		}
	}
	for j, rec := range r.recs {
		if rec.part < f {
			copy(keys[rec.slot*b:rec.slot*b+b], r.parkK[j*b:j*b+b])
			if hasVals {
				copy(vals[rec.slot*b:rec.slot*b+b], r.parkV[j*b:j*b+b])
			}
			r.slotPart[rec.slot] = int32(rec.part)
		}
	}
	var vac []int
	for s := 0; s < r.nSlots; s++ {
		if r.slotPart[s] == -1 {
			vac = append(vac, s)
		}
	}
	vi, off := 0, 0
	write := func(src, srcV []K) {
		for len(src) > 0 {
			var lo, room int
			if vi < len(vac) {
				lo = vac[vi]*b + off
				room = b - off
			} else {
				lo = r.nSlots*b + off
				room = r.n - lo
			}
			if room <= 0 {
				return
			}
			m := len(src)
			if m > room {
				m = room
			}
			copy(keys[lo:lo+m], src[:m])
			if hasVals {
				copy(vals[lo:lo+m], srcV[:m])
				srcV = srcV[m:]
			}
			src = src[m:]
			off += m
			if off == b && vi < len(vac) {
				vi++
				off = 0
			}
		}
	}
	for t := 0; t < r.workers; t++ {
		base := t * f * b
		for p := 0; p < f; p++ {
			m := r.bufN[t][p]
			if m == 0 {
				continue
			}
			var sv []K
			if hasVals {
				sv = r.bufV[base+p*b : base+p*b+m]
			}
			write(r.bufK[base+p*b:base+p*b+m], sv)
		}
	}
}

// release returns every arena buffer and drops the per-call references so
// the pooled runner retains only the park/record capacity.
func (r *blockPermRunner[K, F]) release(w *ws.Workspace) {
	ws.PutKeys(w, r.bufK)
	ws.PutKeys(w, r.handK)
	if r.vals != nil {
		ws.PutKeys(w, r.bufV)
		ws.PutKeys(w, r.handV)
	}
	ws.PutKeys(w, r.used)
	w.PutMatrix(r.bufN)
	w.PutInt32s(r.slotPart)
	w.PutInt32s(r.codes)
	w.PutInt32s(r.gap)
	w.PutInts(r.bounds)
	w.PutInts(r.wPtr)
	w.PutInts(r.sLo)
	w.PutInts(r.need)
	w.PutInts(r.handSlot)
	w.PutInts(r.handPart)
	r.keys, r.vals = nil, nil
	r.bufK, r.bufV, r.handK, r.handV = nil, nil, nil, nil
	r.used = nil
	r.bufN = nil
	r.slotPart, r.codes, r.gap = nil, nil, nil
	r.bounds, r.wPtr, r.sLo, r.need, r.handSlot, r.handPart = nil, nil, nil, nil, nil, nil
	r.recs = r.recs[:0]
	r.parkK = r.parkK[:0]
	r.parkV = r.parkV[:0]
	r.fixPlan = r.fixPlan[:0]
	r.flushes.Store(0)
	r.claims.Store(0)
	var zero F
	r.fn = zero
	r.bl = nil
	r.hasBatch, r.isRadix = false, false
	r.ctl = nil
}

// BlockPermutePartitionCtl partitions keys/vals (vals may be nil) in place
// under fn using `workers` concurrent goroutines and O(workers × fanout ×
// blockTuples) arena scratch, writing the partition boundaries into starts
// (len fanout+1, starts[fanout] = len(keys)) — the same shape
// ShuffleBlocksInPlace returns. blockTuples ≤ 0 selects DefaultBlockTuples.
// The output is an unstable partition: tuples land inside their partition
// in no particular order.
//
// Under a live ctl the kernel checkpoints between classification
// sub-batches and permutation hops; on cancellation or a worker panic the
// restore handler rebuilds a permutation of the input (except inside the
// brief cleanup phase, whose only panic source is an internal invariant)
// and re-raises wrapped in *hard.PanicError.
func BlockPermutePartitionCtl[K kv.Key, F pfunc.Func[K]](w *ws.Workspace, keys, vals []K, fn F, blockTuples, workers int, starts []int, ctl *hard.Ctl) {
	n := len(keys)
	f := fn.Fanout()
	if len(starts) != f+1 {
		panic("part: starts must have fanout+1 entries")
	}
	if n == 0 {
		for i := range starts {
			starts[i] = 0
		}
		return
	}
	b := blockTuples
	if b <= 0 {
		b = DefaultBlockTuples
	}
	nSlots := n / b
	if workers > nSlots && nSlots > 0 {
		workers = nSlots
	}
	if workers < 1 || nSlots == 0 {
		workers = 1
	}

	r := ws.Scratch[blockPermRunner[K, F]](w, ws.SlotBlockPerm)
	r.keys, r.vals, r.fn, r.ctl = keys, vals, fn, ctl
	r.n, r.b, r.f, r.np, r.nSlots, r.workers = n, b, f, f+1, nSlots, workers
	if shift, mask, ok := radixParams[K](fn); ok {
		r.isRadix, r.rShift, r.rMask = true, shift, mask
	} else {
		r.bl, r.hasBatch = any(fn).(BatchLookuper[K])
	}

	hasVals := vals != nil
	r.bufK = ws.Keys[K](w, workers*f*b)
	r.handK = ws.Keys[K](w, workers*b)
	if hasVals {
		r.bufV = ws.Keys[K](w, workers*f*b)
		r.handV = ws.Keys[K](w, workers*b)
	}
	r.bufN = w.Matrix(workers, f)
	for t := 0; t < workers; t++ {
		row := r.bufN[t]
		for p := range row {
			row[p] = 0
		}
	}
	r.slotPart = w.Int32s(nSlots)
	for s := range r.slotPart {
		r.slotPart[s] = -1
	}
	r.codes = w.Int32s(workers * permBatch)
	r.bounds = ChunkBoundsInto(w.Ints(workers+1), nSlots)
	r.wPtr = w.Ints(workers)
	copy(r.wPtr, r.bounds[:workers])
	r.sLo = w.Ints(f)
	r.need = w.Ints(f + 1)
	r.handSlot = w.Ints(workers)
	r.handPart = w.Ints(workers)
	r.used = ws.Keys[uint64](w, f+1)
	r.phase = bpClassify

	defer func() {
		if e := recover(); e != nil {
			r.restore()
			r.release(w)
			ws.PutScratch(w, ws.SlotBlockPerm, r)
			panic(hard.NewPanic(e))
		}
		r.release(w)
		ws.PutScratch(w, ws.SlotBlockPerm, r)
	}()

	ws.RunWorkersCtl(w, workers, r, ctl)

	// Derive the histogram — full blocks per slot label plus buffered
	// partials — and from it the partition starts and stripe geometry.
	need := r.need
	for p := 0; p < f; p++ {
		need[p] = 0
	}
	for s := 0; s < nSlots; s++ {
		if q := r.slotPart[s]; q >= 0 {
			need[q]++
		}
	}
	totalFull := 0
	o := 0
	for p := 0; p < f; p++ {
		h := need[p] * b
		totalFull += need[p]
		for t := 0; t < workers; t++ {
			h += r.bufN[t][p]
		}
		starts[p] = o
		o += h
	}
	starts[f] = o
	if o != n {
		panic("part: block permutation histogram mismatch")
	}
	for p := 0; p < f; p++ {
		r.sLo[p] = starts[p] / b
	}
	need[f] = nSlots - totalFull
	// The gap: slots covered by no stripe, in ascending order. Stripe
	// disjointness follows from starts[p+1] ≥ starts[p] + need[p]·b and
	// the monotonicity of ⌊·/b⌋.
	r.gap = w.Int32s(need[f])
	gi, cursor := 0, 0
	for p := 0; p < f; p++ {
		if need[p] == 0 {
			continue
		}
		for s := cursor; s < r.sLo[p]; s++ {
			r.gap[gi] = int32(s)
			gi++
		}
		cursor = r.sLo[p] + need[p]
	}
	for s := cursor; s < nSlots; s++ {
		r.gap[gi] = int32(s)
		gi++
	}
	for i := range r.used {
		r.used[i] = 0
	}
	for wi := 0; wi < workers; wi++ {
		r.handSlot[wi] = -1
	}

	r.phase = bpPermute
	ws.RunWorkersCtl(w, workers, r, ctl)

	ob := obs.Cur()
	if ob != nil {
		ob.Counters.SyncClaims.Add(r.claims.Load())
		ob.Counters.SyncParks.Add(uint64(len(r.recs)))
	}
	if len(r.recs) > 0 {
		r.fixParked(w)
	}

	ctl.CheckpointNow()
	fault.Inject(fault.SiteBlockCleanup)
	r.phase = bpCleanup
	r.cleanup(starts)
	publishScatter(n, r.flushes.Load())
}
