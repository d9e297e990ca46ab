// Small-request coalescing. Key-only requests at or below
// Config.BatchMaxTuples are held for up to BatchWindow and merged —
// across tenants — into one run per key width: the merged key column is
// sorted once with the request index as the payload, and each request's
// sorted keys are scattered back from the merged output (any permutation
// sort keeps every request's subsequence in nondecreasing order, so the
// split is exact). One queue slot, one workspace acquisition, and one
// supervisor run are amortized over the whole batch — the point of
// batching on a daemon whose per-sort cost for 4K-tuple requests is
// dominated by dispatch, not sorting.

package server

import (
	"context"
	"sync"
	"time"

	partsort "repro"
)

// pendingBatch accumulates one width's coalescing batch.
type pendingBatch struct {
	subs  []*job
	total int
	prio  int
	enq   time.Time
}

// batcher is the coalescing stage between admission and the queue.
// All state transitions happen under one mutex; the flush timer is a
// time.AfterFunc whose callback re-acquires it.
type batcher struct {
	s       *Server
	mu      sync.Mutex
	pend    map[int]*pendingBatch // by key width
	timer   *time.Timer
	stopped bool
}

// newBatcher returns an idle batcher for s.
func newBatcher(s *Server) *batcher {
	return &batcher{s: s, pend: make(map[int]*pendingBatch)}
}

// add routes one admitted small request into its width's batch, flushing
// when the request-count or merged-tuple cap is reached. After stop
// (drain), jobs pass straight through to the queue.
func (b *batcher) add(j *job) {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		b.s.q.push(j)
		return
	}
	pb := b.pend[j.width]
	if pb == nil {
		pb = &pendingBatch{prio: j.prio, enq: j.enq}
		b.pend[j.width] = pb
	}
	pb.subs = append(pb.subs, j)
	pb.total += j.n
	if j.prio < pb.prio {
		pb.prio = j.prio
	}
	var flush *pendingBatch
	if len(pb.subs) >= b.s.cfg.BatchMaxRequests || pb.total >= b.s.cfg.BatchMaxTotal {
		flush = pb
		delete(b.pend, j.width)
	} else if b.timer == nil {
		b.timer = time.AfterFunc(b.s.cfg.BatchWindow, b.flushAll)
	}
	b.mu.Unlock()
	if flush != nil {
		b.s.pushBatch(j.width, flush)
	}
}

// flushAll pushes every pending batch into the queue (the window
// timer's callback).
func (b *batcher) flushAll() {
	b.mu.Lock()
	pend := b.pend
	b.pend = make(map[int]*pendingBatch)
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	b.mu.Unlock()
	for width, pb := range pend {
		b.s.pushBatch(width, pb)
	}
}

// stop flushes everything and passes later adds straight through — the
// drain path, called before the queue closes.
func (b *batcher) stop() {
	b.mu.Lock()
	b.stopped = true
	b.mu.Unlock()
	b.flushAll()
}

// pushBatch wraps one pending batch in a container job and enqueues it.
// A single-request batch skips the container and runs as itself.
func (s *Server) pushBatch(width int, pb *pendingBatch) {
	if len(pb.subs) == 1 {
		s.q.push(pb.subs[0])
		return
	}
	s.q.push(&job{
		n:     pb.total,
		prio:  pb.prio,
		seq:   s.seq.Add(1),
		enq:   pb.enq,
		width: width,
		subs:  pb.subs,
	})
}

// runBatch executes one merged batch container and settles every
// coalesced request.
func (s *Server) runBatch(b *job) {
	subs := b.subs
	s.met.batchSize.Observe(uint64(len(subs)), 0)
	s.met.batchesMerged.Inc()
	now := time.Now()
	for _, sub := range subs {
		s.met.queueWait.ObserveDuration(now.Sub(sub.enq), 0)
	}
	if s.baseCtx.Err() != nil {
		s.settleBatch(b, Result{}, context.Canceled)
		return
	}
	ctx, release := s.runCtx(b)
	defer release()

	arena := s.arenas.acquire(b.n)
	defer s.arenas.release(arena)
	var rs partsort.RetryStats
	opt := &partsort.SortOptions{
		Threads:     s.cfg.SortThreads,
		Workspace:   arena.pub(),
		MaxAuxBytes: estAux(b.n, b.width),
		AutoTune:    s.cfg.AutoTune,
		Retry:       s.retryPolicy(&rs),
	}

	start := time.Now()
	var err error
	if b.width == 64 {
		cols := make([][]uint64, len(subs))
		for i, sub := range subs {
			cols[i] = sub.req.Keys64
		}
		err = batchSort(ctx, cols, opt)
	} else {
		cols := make([][]uint32, len(subs))
		for i, sub := range subs {
			cols[i] = sub.req.Keys32
		}
		err = batchSort(ctx, cols, opt)
	}
	dur := time.Since(start)
	s.met.sortDur(partsort.LSB).ObserveDuration(dur, 0)
	s.settleBatch(b, Result{
		SortTime:      dur,
		Attempts:      rs.Attempts,
		Stage:         rs.Stage,
		Degraded:      rs.Degraded,
		Batched:       true,
		BatchRequests: len(subs),
	}, err)
}

// settleBatch finishes every request of a batch container with a shared
// outcome, preserving each request's own queue wait.
func (s *Server) settleBatch(b *job, shared Result, err error) {
	now := time.Now()
	for _, sub := range b.subs {
		res := shared
		res.QueueWait = now.Sub(sub.enq) - shared.SortTime
		if res.QueueWait < 0 {
			res.QueueWait = 0
		}
		s.met.requestDur.ObserveDuration(now.Sub(sub.enq), 0)
		s.finish(sub, res, err)
	}
}

// batchSort sorts the concatenation of cols by key with the column index
// as payload, then scatters each column's keys back in sorted order.
// The merged run uses LSB: the payload domain is dense (0..len(cols)),
// exactly its best case.
func batchSort[K partsort.Key](ctx context.Context, cols [][]K, opt *partsort.SortOptions) error {
	total := 0
	for _, c := range cols {
		total += len(c)
	}
	keys := make([]K, 0, total)
	vals := make([]K, 0, total)
	for i, c := range cols {
		keys = append(keys, c...)
		for range c {
			vals = append(vals, K(i))
		}
	}
	if err := partsort.SortCtx(ctx, partsort.LSB, keys, vals, opt); err != nil {
		return err
	}
	cur := make([]int, len(cols))
	for i, v := range vals {
		idx := int(v)
		cols[idx][cur[idx]] = keys[i]
		cur[idx]++
	}
	return nil
}
