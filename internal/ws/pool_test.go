package ws

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/hard"
)

// markRunner records which task indices ran and on how many distinct
// invocations.
type markRunner struct {
	marks []atomic.Int32
}

func (r *markRunner) RunTask(i int) {
	r.marks[i].Add(1)
}

func TestPoolRunCoversAllTasks(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	r := &markRunner{marks: make([]atomic.Int32, 100)}
	p.Run(100, r)
	for i := range r.marks {
		if got := r.marks[i].Load(); got != 1 {
			t.Fatalf("task %d ran %d times", i, got)
		}
	}
}

func TestPoolSequentialRunsReuseWorkers(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	if p.Workers() != 2 {
		t.Fatalf("workers = %d", p.Workers())
	}
	r := &markRunner{marks: make([]atomic.Int32, 8)}
	for pass := 0; pass < 50; pass++ {
		p.Run(8, r)
	}
	for i := range r.marks {
		if got := r.marks[i].Load(); got != 50 {
			t.Fatalf("task %d ran %d times, want 50", i, got)
		}
	}
	p.Grow(5)
	if p.Workers() != 5 {
		t.Fatalf("workers after Grow = %d", p.Workers())
	}
}

func TestPoolConcurrentRuns(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &markRunner{marks: make([]atomic.Int32, 32)}
			for pass := 0; pass < 20; pass++ {
				p.Run(32, r)
			}
			for i := range r.marks {
				if got := r.marks[i].Load(); got != 20 {
					t.Errorf("task %d ran %d times, want 20", i, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

type panicRunner struct{}

func (panicRunner) RunTask(i int) {
	if i == 3 {
		panic("task 3 exploded")
	}
}

func TestPoolPanicPropagates(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	defer func() {
		pe, ok := recover().(*hard.PanicError)
		if !ok || pe.Val != "task 3 exploded" {
			t.Fatalf("recovered %v, want *hard.PanicError wrapping the task panic", pe)
		}
		// The worker's stack — not the Run caller's — must be attached, so
		// the panic site (panicRunner.RunTask) is debuggable.
		if !strings.Contains(string(pe.Stack), "RunTask") {
			t.Errorf("worker stack lost:\n%s", pe.Stack)
		}
		// The pool must still work after a panicked Run.
		r := &markRunner{marks: make([]atomic.Int32, 4)}
		p.Run(4, r)
		for i := range r.marks {
			if r.marks[i].Load() != 1 {
				t.Fatal("pool broken after panic")
			}
		}
	}()
	p.Run(8, panicRunner{})
}

// blockRunner parks every task on a gate, then checkpoints: once one task
// panics, siblings released from the gate must bail instead of running.
type blockRunner struct {
	ctl     *hard.Ctl
	started atomic.Int32
}

func (r *blockRunner) RunTask(i int) {
	r.started.Add(1)
	if i == 0 {
		panic("first task fails")
	}
	for !r.ctl.Stopped() {
	}
	r.ctl.Checkpoint() // must bail: sibling failed
	panic("sibling ran past a post-failure checkpoint")
}

func TestPoolRunCtlStopsSiblings(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	ctl := hard.NewCtl(context.Background())
	r := &blockRunner{ctl: ctl}
	var got any
	func() {
		defer func() { got = recover() }()
		p.RunCtl(4, r, ctl)
	}()
	pe, ok := got.(*hard.PanicError)
	if !ok || pe.Val != "first task fails" {
		t.Fatalf("recovered %v, want the first task's panic", got)
	}
}

func TestPoolRunCtlCancellation(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctl := hard.NewCtl(ctx)
	r := &markRunner{marks: make([]atomic.Int32, 4)}
	var got any
	func() {
		defer func() { got = recover() }()
		p.RunCtl(4, r, ctl)
	}()
	err, ok := hard.BailCause(got)
	if !ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("recovered %v, want context.Canceled bail", got)
	}
}

func TestNilPoolRunsSerially(t *testing.T) {
	var p *Pool
	r := &markRunner{marks: make([]atomic.Int32, 10)}
	p.Run(10, r)
	for i := range r.marks {
		if r.marks[i].Load() != 1 {
			t.Fatal("nil pool must run serially")
		}
	}
}

func TestGoRun(t *testing.T) {
	r := &markRunner{marks: make([]atomic.Int32, 16)}
	GoRunCtl(16, r, nil)
	for i := range r.marks {
		if r.marks[i].Load() != 1 {
			t.Fatal("GoRunCtl missed a task")
		}
	}
}

func TestRunWorkers(t *testing.T) {
	r := &markRunner{marks: make([]atomic.Int32, 1)}
	RunWorkers(nil, 1, r) // inline
	if r.marks[0].Load() != 1 {
		t.Fatal("inline run")
	}
	w := New()
	defer w.Close()
	r2 := &markRunner{marks: make([]atomic.Int32, 6)}
	RunWorkers(w, 6, r2) // lazily creates the workspace pool
	for i := range r2.marks {
		if r2.marks[i].Load() != 1 {
			t.Fatal("pooled run missed a task")
		}
	}
	if w.Pool(1).Workers() < 6 {
		t.Fatal("workspace pool not grown to run width")
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close()
	w := New()
	w.Pool(2)
	w.Close()
	w.Close()
}

func TestPoolRunZeroAlloc(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	r := &markRunner{marks: make([]atomic.Int32, 16)}
	p.Run(16, r) // warm the completion pool
	if n := testing.AllocsPerRun(100, func() { p.Run(16, r) }); n != 0 {
		t.Fatalf("steady-state Run allocates %v times", n)
	}
}
