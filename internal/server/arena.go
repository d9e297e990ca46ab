// Per-size-class workspace arenas, shared across tenants. A pooled
// arena's scratch demand is set by the largest sort that ran through it,
// so pooling by ceil(log2 n) keeps reuse hit rates high (a 2^20-tuple
// request never inherits a 2^26-sized arena's memory) while the PR 7
// in-place dispatch keeps each arena's peak footprint at
// O(threads x fanout x block) rather than O(n) — the property that makes
// dense multi-tenant sharing viable at all. The one O(n) buffer an arena
// keeps is the payload column key-only sorts lease from it, sized by the
// largest key-only request of its class. Arenas hold no tenant state;
// isolation is accounting (tenant table + admission ledger), not copies.

package server

import (
	"math/bits"
	"sync"

	partsort "repro"
)

// arena is one pooled workspace with its size class, plus the payload
// columns key-only sorts lease for the length of a checkout.
type arena struct {
	w      *partsort.Workspace
	class  int
	vals64 []uint64
	vals32 []uint32
}

// pub returns the workspace to hand to SortOptions (nil-safe).
func (a *arena) pub() *partsort.Workspace {
	if a == nil {
		return nil
	}
	return a.w
}

// payload64 returns an n-element scratch payload column with arbitrary
// contents, owned by whoever has the arena checked out (fresh when a is
// nil).
func (a *arena) payload64(n int) []uint64 {
	if a == nil {
		return make([]uint64, n)
	}
	return lease(&a.vals64, n)
}

// payload32 is payload64 for 32-bit keys.
func (a *arena) payload32(n int) []uint32 {
	if a == nil {
		return make([]uint32, n)
	}
	return lease(&a.vals32, n)
}

// lease returns (*col)[:n], first growing *col when it is too short.
func lease[K partsort.Key](col *[]K, n int) []K {
	if cap(*col) < n {
		*col = make([]K, n)
	}
	return (*col)[:n]
}

// arenaPool pools workspaces by size class. Acquire never blocks: when a
// class has no idle arena a fresh one is created (bounded in practice by
// the executor count — each executor holds at most one), and release
// closes arenas beyond the per-class retention cap.
type arenaPool struct {
	mu       sync.Mutex
	free     map[int][]*arena
	live     map[*arena]struct{} // every open arena, pooled or checked out
	perClass int
	closed   bool
}

// newArenaPool returns an empty pool retaining perClass idle arenas per
// size class.
func newArenaPool(perClass int) *arenaPool {
	return &arenaPool{
		free:     make(map[int][]*arena),
		live:     make(map[*arena]struct{}),
		perClass: perClass,
	}
}

// classFor buckets a key count into its size class: ceil(log2 n),
// clamped so tiny sorts share one class.
func classFor(n int) int {
	if n <= 1<<10 {
		return 10
	}
	return bits.Len(uint(n - 1))
}

// acquire returns an arena suited to an n-tuple sort.
func (p *arenaPool) acquire(n int) *arena {
	c := classFor(n)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil // drained: sort with per-call allocation
	}
	if frees := p.free[c]; len(frees) > 0 {
		a := frees[len(frees)-1]
		p.free[c] = frees[:len(frees)-1]
		return a
	}
	a := &arena{w: partsort.NewWorkspace(), class: c}
	p.live[a] = struct{}{}
	return a
}

// release returns an arena to its class pool, closing it when the class
// is at its retention cap or the pool has drained.
func (p *arenaPool) release(a *arena) {
	if a == nil {
		return
	}
	p.mu.Lock()
	if !p.closed && len(p.free[a.class]) < p.perClass {
		p.free[a.class] = append(p.free[a.class], a)
		p.mu.Unlock()
		return
	}
	delete(p.live, a)
	p.mu.Unlock()
	a.w.Close()
}

// auxBytes sums the checked-out scratch bytes of every open arena.
func (p *arenaPool) auxBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var total int64
	for a := range p.live {
		total += int64(a.w.AuxBytes())
	}
	return total
}

// closeAll closes every idle arena and marks the pool drained; arenas
// still checked out close on release.
func (p *arenaPool) closeAll() {
	p.mu.Lock()
	var toClose []*arena
	for _, frees := range p.free {
		toClose = append(toClose, frees...)
	}
	p.free = make(map[int][]*arena)
	for _, a := range toClose {
		delete(p.live, a)
	}
	p.closed = true
	p.mu.Unlock()
	for _, a := range toClose {
		a.w.Close()
	}
}
