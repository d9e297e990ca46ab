// Small-request coalescing, from the backlog. A key-only request with
// at most Config.BatchMaxTuples keys enters the priority queue like any
// other job; when an executor pops one, it also takes every other queued
// small job of the same key width — across tenants, in (priority,
// admission) order, up to BatchMaxRequests requests or BatchMaxTotal
// merged keys — into one batch container. An idle executor therefore
// never waits for companions: batches form only from work that is
// already waiting because every executor was busy. The merged key column
// is sorted once with the request index as the payload, and each
// request's sorted keys are scattered back from the merged output (any
// permutation sort keeps every request's subsequence in nondecreasing
// order, so the split is exact). One workspace acquisition and one
// supervisor run are amortized over the whole batch — the point of
// batching on a daemon whose per-sort cost for 4K-tuple requests is
// dominated by dispatch, not sorting.

package server

import (
	"container/heap"
	"context"
	"time"

	partsort "repro"
)

// coalesce gathers the queued small jobs of first's width into one batch
// container with first, taking them in heap order until the request or
// merged-key cap is reached. Jobs it passes over go back into the heap.
// With no companion it returns first itself. Called with q.mu held.
func (q *queue) coalesce(first *job) *job {
	var subs, skipped []*job
	total := first.n
	for len(q.jobs) > 0 && len(subs)+1 < q.batchRequests && total < q.batchTotal {
		j := heap.Pop(&q.jobs).(*job)
		if !j.small || j.width != first.width {
			skipped = append(skipped, j)
			continue
		}
		subs = append(subs, j)
		total += j.n
	}
	for _, j := range skipped {
		heap.Push(&q.jobs, j)
	}
	if subs == nil {
		return first
	}
	return &job{
		n:     total,
		prio:  first.prio,
		seq:   first.seq, // first runs only inside the container
		enq:   first.enq,
		width: first.width,
		subs:  append([]*job{first}, subs...),
	}
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
