package partsort

import (
	"repro/internal/ws"
)

// Workspace is a reusable arena of sorting scratch — the linear auxiliary
// arrays, cache-line buffers, histogram and offset tables, partition
// codes, the persistent worker pool — for server-style workloads that sort
// repeatedly. Pass it via SortOptions.Workspace and repeated sorts of
// same-shaped inputs make zero steady-state heap allocations;
// SortStats.WorkspaceHits/Misses witness the reuse.
//
// A Workspace is safe for concurrent use; a nil *Workspace is valid and
// means "allocate per call". It grows to the high-water scratch demand of
// the sorts run through it and holds that memory until it is garbage
// collected; call Close when done to stop its worker pool promptly.
type Workspace struct {
	ws *ws.Workspace
}

// NewWorkspace returns an empty Workspace; it warms up on first use.
func NewWorkspace() *Workspace {
	return &Workspace{ws: ws.New()}
}

// Close stops the workspace's persistent worker pool. The arena itself
// needs no teardown. Idempotent; do not use the Workspace concurrently
// with Close.
func (w *Workspace) Close() {
	if w == nil {
		return
	}
	w.ws.Close()
}

// Counters returns the cumulative pooled-buffer reuse counts: one event
// per buffer acquisition, a hit when the arena already held a suitable
// buffer. A warm workspace reports no new misses.
func (w *Workspace) Counters() (hits, misses uint64) {
	if w == nil {
		return 0, 0
	}
	return w.ws.Counters()
}

// AuxBytes returns the auxiliary scratch bytes currently checked out of
// the arena. It is zero between balanced sorts; a persistent nonzero
// reading after every sort has returned indicates leaked buffers
// (TestResilientChaosMatrix asserts this after each contained failure).
func (w *Workspace) AuxBytes() uint64 {
	if w == nil {
		return 0
	}
	return w.ws.AuxBytes()
}

// SetMaxAuxBytes installs a standing auxiliary-memory budget on the
// arena, returning the previous one: an acquisition that would push the
// checked-out ledger past the budget fails the sort with *ResourceError
// (returned by SortCtx, raised as the panic value by the Sort* wrappers).
// A SortOptions.MaxAuxBytes cap overrides it for the duration of one sort;
// zero removes the standing budget (the per-sort default still applies).
func (w *Workspace) SetMaxAuxBytes(budget int64) int64 {
	if w == nil {
		return 0
	}
	return w.ws.SetBudget(budget)
}

func (w *Workspace) internal() *ws.Workspace {
	if w == nil {
		return nil
	}
	return w.ws
}
