package obs

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
)

// Profile labels: when enabled, the sort drivers tag their goroutines
// with runtime/pprof labels (algo, phase) and the worker pools add a
// worker index, so CPU and goroutine profiles attribute samples to
// partition passes instead of an undifferentiated kernel blur.
//
// Disabled — the default — every hook is one atomic load and allocates
// nothing. Enabled, labels are (re)built at phase granularity on the
// coordinator and per task on the workers: coordinator-level work, never
// per tuple. The current label set lives in a process-wide atomic
// pointer (pool workers are persistent goroutines, so they cannot
// inherit labels at spawn the way fresh goroutines do); concurrent sorts
// overwrite each other's set last-writer-wins, the same documented
// attribution caveat as the session counters.

// labelsOn gates the whole subsystem.
var labelsOn atomic.Bool

// curLabels is the label context of the innermost active PushLabels
// scope, read by pool workers at task start.
var curLabels atomic.Pointer[labelCtx]

// labelCtx wraps the pprof-labeled context of one driver scope. It
// holds no link to the enclosing scope: under concurrent sorts the
// pushes and restores of different goroutines interleave, and a chain
// of enclosing scopes would keep growing through the stale scopes those
// restores republish.
type labelCtx struct {
	ctx context.Context
}

// EnableProfileLabels turns profile-label propagation on or off
// process-wide.
func EnableProfileLabels(on bool) { labelsOn.Store(on) }

// ProfileLabelsEnabled reports whether profile labels are on.
func ProfileLabelsEnabled() bool { return labelsOn.Load() }

// PushLabels installs (algo, phase) pprof labels on the calling
// goroutine and publishes them for the worker pools, returning a restore
// function to defer. When disabled it returns nil — callers must treat
// a nil restore as a no-op scope. Scopes nest: timed phases push on top
// of the driver's algo-level scope and restore the outer labels on exit.
func PushLabels(algo, phase string) func() {
	if !labelsOn.Load() {
		return nil
	}
	ctx := pprof.WithLabels(context.Background(), pprof.Labels("algo", algo, "phase", phase))
	pprof.SetGoroutineLabels(ctx)
	prev := curLabels.Load()
	curLabels.Store(&labelCtx{ctx: ctx})
	return func() {
		if prev != nil {
			curLabels.Store(prev)
			pprof.SetGoroutineLabels(prev.ctx)
			return
		}
		curLabels.Store(nil)
		pprof.SetGoroutineLabels(context.Background())
	}
}

// ApplyWorkerLabels sets the current scope's labels plus a worker index
// on the calling goroutine — the pool-worker entry hook. It reports
// whether labels were applied (the caller then defers
// ClearWorkerLabels). One atomic load when no scope is active.
func ApplyWorkerLabels(worker int) bool {
	lc := curLabels.Load()
	if lc == nil {
		return false
	}
	ctx := pprof.WithLabels(lc.ctx, pprof.Labels("worker", strconv.Itoa(worker)))
	pprof.SetGoroutineLabels(ctx)
	return true
}

// ClearWorkerLabels resets the calling goroutine's labels (pool workers
// park unlabeled between tasks).
func ClearWorkerLabels() {
	pprof.SetGoroutineLabels(context.Background())
}
