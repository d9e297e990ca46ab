// The bounded priority job queue: a binary heap ordered by (priority,
// admission sequence) under one mutex with a condition variable for the
// executor pool. The depth bound is enforced at admission (Server.admit)
// — every heap entry is an already-admitted job — so push never blocks
// and pop is the only waiting side. Popping a small key-only job
// coalesces its queued same-width companions into one batch (batch.go).

package server

import (
	"container/heap"
	"sync"
)

// queue is the executor work queue.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	jobs   jobHeap
	closed bool

	// batchRequests and batchTotal cap one coalesced batch
	// (Config.BatchMaxRequests, Config.BatchMaxTotal).
	batchRequests, batchTotal int
}

// newQueue returns an empty open queue whose batches hold at most
// batchRequests requests and stop growing at batchTotal merged keys.
func newQueue(batchRequests, batchTotal int) *queue {
	q := &queue{batchRequests: batchRequests, batchTotal: batchTotal}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues one admitted job.
func (q *queue) push(j *job) {
	q.mu.Lock()
	heap.Push(&q.jobs, j)
	q.mu.Unlock()
	q.cond.Signal()
}

// pop blocks until a job is available or the queue is closed and empty;
// ok=false means the executor should exit. A small job comes back as a
// batch container when same-width small jobs were queued behind it.
func (q *queue) pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.jobs) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.jobs) == 0 {
		return nil, false
	}
	j := heap.Pop(&q.jobs).(*job)
	if j.small {
		j = q.coalesce(j)
	}
	return j, true
}

// close marks the queue draining: executors finish the remaining heap
// and exit.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// len returns the current heap length.
func (q *queue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.jobs)
}

// jobHeap implements heap.Interface ordered by (priority, sequence):
// lower priority values first, FIFO within a priority.
type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// Push implements heap.Interface.
func (h *jobHeap) Push(x any) { *h = append(*h, x.(*job)) }

// Pop implements heap.Interface.
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}
