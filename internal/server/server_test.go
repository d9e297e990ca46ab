// Lifecycle tests for the sort service: admission control under tiny
// bounds, graceful and forced drain (no leaked goroutines, admission
// ledger settled back to zero), coalescing from the backlog, and the
// priority queue's ordering contract.

package server

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	partsort "repro"
	"repro/internal/fault"
	"repro/internal/obs"
)

// testConfig returns a config with a private registry so concurrent
// tests do not share metric series.
func testConfig() Config {
	return Config{Registry: obs.NewRegistry()}
}

// randKeys returns n deterministic pseudo-random keys.
func randKeys(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	return keys
}

// checkSorted fails unless keys is non-decreasing.
func checkSorted(t *testing.T, keys []uint64) {
	t.Helper()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			t.Fatalf("keys[%d]=%d > keys[%d]=%d", i-1, keys[i-1], i, keys[i])
		}
	}
}

// holdExecutor parks the next sort on cfg's server mid-run, so requests
// queue deterministically behind it: that sort's first LSB pass hits an
// injected fault, and the retry classifier blocks until release is
// called, then classifies the fault transient so the retry succeeds.
// Other errors get the default classification. parked closes once the
// executor is held. cfg should have one worker.
func holdExecutor(t *testing.T, cfg *Config) (parked <-chan struct{}, release func()) {
	t.Helper()
	held, free := make(chan struct{}), make(chan struct{})
	cfg.Retry = &partsort.RetryPolicy{
		InitialBackoff: time.Nanosecond,
		Classify: func(err error) partsort.RetryClass {
			var inj fault.Injected
			if !errors.As(err, &inj) {
				return partsort.ClassifyError(err)
			}
			close(held) // the fault fires once, so this runs once
			<-free
			return partsort.RetryTransient
		},
	}
	fault.Enable(fault.SiteLSBPass, 0)
	var once sync.Once
	release = func() { once.Do(func() { close(free) }) }
	t.Cleanup(fault.Disable)
	t.Cleanup(release)
	return held, release
}

// submitHeld starts a sort with payloads (never coalesced) that the
// executor parks on, and waits until it is parked. The returned channel
// yields its Submit error.
func submitHeld(t *testing.T, s *Server, parked <-chan struct{}, tenant string) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		keys := randKeys(4096, 7)
		_, err := s.Submit(context.Background(), &Request{
			Tenant: tenant, Algo: partsort.LSB, Keys64: keys, Vals64: make([]uint64, len(keys)),
		})
		done <- err
	}()
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("the held sort never reached the retry classifier")
	}
	return done
}

// drainOK drains s with a generous budget and fails the test on error.
func drainOK(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestSubmitSpillsOverBudgetRequest drives the degradation path end to
// end: a request too big for the memory ledger runs through the external
// sort, keeps its payloads attached, reports Spilled, and settles the
// disk ledger.
func TestSubmitSpillsOverBudgetRequest(t *testing.T) {
	cfg := testConfig()
	cfg.MaxAuxBytes = 256 << 10
	cfg.SpillDir = t.TempDir()
	cfg.SpillSegmentTuples = 1 << 10 // force real segments and file-backed merges
	s := New(cfg)
	defer drainOK(t, s)

	const n = 16384 // est ≈ 36·n + 96 KiB, well past the 256 KiB ledger
	keys := randKeys(n, 99)
	vals := make([]uint64, n)
	for i, k := range keys {
		vals[i] = k ^ 0xabcdef
	}
	res, err := s.Submit(context.Background(), &Request{
		Algo: partsort.LSB, Keys64: keys, Vals64: vals,
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if !res.Spilled {
		t.Fatal("over-budget request did not report Spilled")
	}
	checkSorted(t, keys)
	for i, k := range keys {
		if vals[i] != k^0xabcdef {
			t.Fatalf("payload detached from key at %d", i)
		}
	}
	if got := s.PendingSpillBytes(); got != 0 {
		t.Fatalf("disk ledger holds %d bytes after completion", got)
	}
}

func TestSubmitSortsAllWidthsAndAlgos(t *testing.T) {
	cfg := testConfig()
	cfg.BatchMaxTuples = -1 // exercise the direct path
	s := New(cfg)
	defer drainOK(t, s)

	for _, algo := range []partsort.Algorithm{partsort.LSB, partsort.MSB, partsort.CMP} {
		keys := randKeys(10_000, int64(algo))
		vals := make([]uint64, len(keys))
		for i, k := range keys {
			vals[i] = k ^ 0xabcdef // payload tied to its key
		}
		res, err := s.Submit(context.Background(), &Request{
			Algo: algo, Keys64: keys, Vals64: vals,
		})
		if err != nil {
			t.Fatalf("%v: Submit: %v", algo, err)
		}
		checkSorted(t, keys)
		for i := range keys {
			if vals[i] != keys[i]^0xabcdef {
				t.Fatalf("%v: payload detached from key at %d", algo, i)
			}
		}
		if res.Batched {
			t.Fatalf("%v: request with vals must not coalesce", algo)
		}
	}

	// 32-bit key-only path (RIDs payload synthesized server-side).
	keys32 := make([]uint32, 5000)
	rng := rand.New(rand.NewSource(7))
	for i := range keys32 {
		keys32[i] = rng.Uint32()
	}
	if _, err := s.Submit(context.Background(), &Request{Algo: partsort.LSB, Keys32: keys32}); err != nil {
		t.Fatalf("32-bit Submit: %v", err)
	}
	for i := 1; i < len(keys32); i++ {
		if keys32[i-1] > keys32[i] {
			t.Fatalf("keys32 not sorted at %d", i)
		}
	}

	// Empty request short-circuits without touching the queue.
	if _, err := s.Submit(context.Background(), &Request{Algo: partsort.LSB, Keys64: []uint64{}}); err != nil {
		t.Fatalf("empty Submit: %v", err)
	}
}

func TestAdmissionRejectsWhenQueueFull(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 2
	cfg.Workers = 1
	// A parked executor holds one depth slot and the request queued
	// behind it the other, deterministically.
	parked, release := holdExecutor(t, &cfg)
	s := New(cfg)
	held := submitHeld(t, s, parked, "")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := s.Submit(context.Background(), &Request{Algo: partsort.LSB, Keys64: randKeys(64, 1)})
		if err != nil {
			t.Errorf("queued Submit: %v", err)
		}
	}()
	waitFor(t, time.Second, func() bool { return s.QueueDepth() == 2 })

	_, err := s.Submit(context.Background(), &Request{Algo: partsort.LSB, Keys64: randKeys(64, 99)})
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Reason != "queue-full" {
		t.Fatalf("want queue-full AdmissionError, got %v", err)
	}
	if adm.RetryAfter <= 0 {
		t.Fatalf("queue-full rejection carries no Retry-After hint")
	}

	release()
	drainOK(t, s) // the held sort and the queued request settle
	wg.Wait()
	if err := <-held; err != nil {
		t.Fatalf("held Submit: %v", err)
	}
	if got := s.PendingAuxBytes(); got != 0 {
		t.Fatalf("ledger holds %d bytes after drain", got)
	}
}

func TestAdmissionRejectsOnMemoryBudget(t *testing.T) {
	cfg := testConfig()
	cfg.MaxAuxBytes = 1 // below any request's estimate
	// Spilling enabled: the over-budget request degrades to an external
	// job whose planned footprint still overflows the 1-byte ledger — the
	// retryable "memory" rejection, not the terminal over-budget one.
	cfg.SpillDir = t.TempDir()
	s := New(cfg)
	defer drainOK(t, s)

	_, err := s.Submit(context.Background(), &Request{Algo: partsort.LSB, Keys64: randKeys(64, 1)})
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Reason != "memory" {
		t.Fatalf("want memory AdmissionError, got %v", err)
	}
	if got := s.PendingAuxBytes(); got != 0 {
		t.Fatalf("rejected request left %d bytes on the ledger", got)
	}
	if got := s.PendingSpillBytes(); got != 0 {
		t.Fatalf("rejected request left %d bytes on the disk ledger", got)
	}
	if got := s.QueueDepth(); got != 0 {
		t.Fatalf("rejected request left depth at %d", got)
	}
}

// TestAdmissionRejectsWithoutSpillDir pins the terminal variant: the
// same over-budget request with spilling disabled is an *OverBudgetError
// with the spill-disabled reason, fully rolled back.
func TestAdmissionRejectsWithoutSpillDir(t *testing.T) {
	cfg := testConfig()
	cfg.MaxAuxBytes = 1
	s := New(cfg)
	defer drainOK(t, s)

	_, err := s.Submit(context.Background(), &Request{Algo: partsort.LSB, Keys64: randKeys(64, 1)})
	var ob *OverBudgetError
	if !errors.As(err, &ob) || ob.Reason != "spill-disabled" {
		t.Fatalf("want spill-disabled OverBudgetError, got %v", err)
	}
	if ob.Need <= ob.Budget {
		t.Fatalf("error fields inconsistent: need %d, budget %d", ob.Need, ob.Budget)
	}
	if got := s.QueueDepth(); got != 0 {
		t.Fatalf("rejected request left depth at %d", got)
	}
}

func TestAdmissionRejectsOverTenantCap(t *testing.T) {
	cfg := testConfig()
	cfg.MaxPerTenant = 1
	cfg.Workers = 1
	parked, release := holdExecutor(t, &cfg) // acme's request holds its slot
	s := New(cfg)
	held := submitHeld(t, s, parked, "acme")

	_, err := s.Submit(context.Background(), &Request{
		Tenant: "acme", Algo: partsort.LSB, Keys64: randKeys(64, 2),
	})
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Reason != "tenant-limit" {
		t.Fatalf("want tenant-limit AdmissionError, got %v", err)
	}

	// A different tenant is unaffected by acme's cap. Its request queues
	// behind the parked one; drain settles both.
	var other sync.WaitGroup
	other.Add(1)
	go func() {
		defer other.Done()
		if _, err := s.Submit(context.Background(), &Request{
			Tenant: "globex", Algo: partsort.LSB, Keys64: randKeys(64, 3),
		}); err != nil {
			t.Errorf("other-tenant Submit: %v", err)
		}
	}()
	waitFor(t, time.Second, func() bool { return s.QueueDepth() == 2 })

	release()
	drainOK(t, s)
	other.Wait()
	if err := <-held; err != nil {
		t.Fatalf("held Submit: %v", err)
	}
	if got := s.PendingAuxBytes(); got != 0 {
		t.Fatalf("ledger holds %d bytes after drain", got)
	}
}

func TestDrainGracefulNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	cfg := testConfig()
	cfg.Workers = 4
	s := New(cfg)

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			keys := randKeys(20_000, seed)
			if _, err := s.Submit(context.Background(), &Request{Algo: partsort.MSB, Keys64: keys}); err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			for j := 1; j < len(keys); j++ {
				if keys[j-1] > keys[j] {
					t.Errorf("request %d not sorted", seed)
					return
				}
			}
		}(int64(i))
	}
	wg.Wait()

	drainOK(t, s)
	if got := s.PendingAuxBytes(); got != 0 {
		t.Fatalf("admission ledger holds %d bytes after drain", got)
	}
	if got := s.AuxBytes(); got != 0 {
		t.Fatalf("workspace arenas hold %d bytes after drain", got)
	}
	// Submission after drain is rejected, not queued forever.
	_, err := s.Submit(context.Background(), &Request{Algo: partsort.LSB, Keys64: randKeys(64, 1)})
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Reason != "draining" {
		t.Fatalf("want draining AdmissionError after drain, got %v", err)
	}

	waitFor(t, 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before
	})
}

func TestDrainDeadlineForceCancels(t *testing.T) {
	before := runtime.NumGoroutine()

	cfg := testConfig()
	cfg.Workers = 1
	cfg.BatchMaxTuples = -1
	s := New(cfg)

	// A sort big enough to still be mid-flight when the drain deadline
	// (1ms) fires.
	keys := randKeys(1<<22, 42)
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), &Request{Algo: partsort.CMP, Keys64: keys})
		done <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return s.QueueDepth() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	err := s.Drain(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain under 1ms budget: want DeadlineExceeded, got %v", err)
	}
	subErr := <-done
	if subErr == nil {
		t.Logf("sort finished inside the drain budget; cancellation not observed")
	} else if !errors.Is(subErr, context.Canceled) && !errors.Is(subErr, context.DeadlineExceeded) {
		t.Fatalf("cancelled Submit returned %v", subErr)
	}

	if got := s.PendingAuxBytes(); got != 0 {
		t.Fatalf("forced drain left %d bytes on the ledger", got)
	}
	if got := s.AuxBytes(); got != 0 {
		t.Fatalf("forced drain left %d workspace bytes", got)
	}
	waitFor(t, 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before
	})
}

func TestSubmitCancellation(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.BatchMaxTuples = -1
	s := New(cfg)
	defer drainOK(t, s)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Submit(ctx, &Request{Algo: partsort.LSB, Keys64: randKeys(4096, 1)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Submit: want context.Canceled, got %v", err)
	}
	// The abandoned job still settles its ledger charge via its executor.
	waitFor(t, 5*time.Second, func() bool { return s.PendingAuxBytes() == 0 })
}

// TestCoalescingLoneRequestRunsUnbatched pins work conservation: a small
// key-only request on an idle server runs at once, alone.
func TestCoalescingLoneRequestRunsUnbatched(t *testing.T) {
	s := New(testConfig())
	defer drainOK(t, s)
	for i := 0; i < 3; i++ {
		keys := randKeys(512, int64(i))
		res, err := s.Submit(context.Background(), &Request{Algo: partsort.LSB, Keys64: keys})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		checkSorted(t, keys)
		if res.Batched || res.BatchRequests != 0 {
			t.Fatalf("lone request batched (BatchRequests=%d)", res.BatchRequests)
		}
	}
}

// coalesceReq is one request queued behind a held executor.
type coalesceReq struct {
	prio  int
	width int  // 32 or 64
	vals  bool // carries payloads: never coalesced
}

// request builds the request with n pseudo-random keys from seed and
// returns it with its keys' sum.
func (c coalesceReq) request(n int, seed int64) (*Request, uint64) {
	req := &Request{Tenant: []string{"a", "b", "c"}[seed%3], Algo: partsort.LSB, Priority: c.prio}
	keys := randKeys(n, seed)
	if c.width == 32 {
		req.Keys32 = make([]uint32, n)
		for i, k := range keys {
			req.Keys32[i] = uint32(k)
		}
	} else {
		req.Keys64 = keys
	}
	if c.vals {
		req.Vals64 = make([]uint64, n)
	}
	var sum uint64
	for _, k := range keyColumn(req) {
		sum += k
	}
	return req, sum
}

// keyColumn returns req's keys as uint64s.
func keyColumn(req *Request) []uint64 {
	if req.Keys64 != nil {
		return req.Keys64
	}
	keys := make([]uint64, len(req.Keys32))
	for i, k := range req.Keys32 {
		keys[i] = uint64(k)
	}
	return keys
}

// TestCoalescingMergesSmallRequests queues small requests behind a held
// executor and checks how the executor that pops them groups them: each
// batch is same-width small key-only jobs taken in (priority, admission)
// order up to the caps, and every request comes back sorted with its own
// keys.
func TestCoalescingMergesSmallRequests(t *testing.T) {
	const keysPer = 512
	cases := []struct {
		name            string
		maxReqs, maxTot int
		reqs            []coalesceReq
		want            []int // BatchRequests per request; 0 = ran alone
	}{
		{
			name: "backlog of N is one batch of N",
			reqs: []coalesceReq{{1, 64, false}, {1, 64, false}, {1, 64, false}, {1, 64, false},
				{1, 64, false}, {1, 64, false}, {1, 64, false}, {1, 64, false}},
			want: []int{8, 8, 8, 8, 8, 8, 8, 8},
		},
		{
			name: "widths and payload requests stay apart",
			reqs: []coalesceReq{{1, 64, false}, {1, 32, false}, {1, 64, true}, {1, 64, false},
				{1, 32, false}, {1, 32, false}, {1, 64, false}},
			want: []int{3, 3, 0, 3, 3, 3, 3},
		},
		{
			// The late interactive request is popped first and takes the
			// three oldest batch-priority requests with it.
			name:    "priority order under the request cap",
			maxReqs: 4,
			reqs: []coalesceReq{{2, 64, false}, {2, 64, false}, {2, 64, false}, {2, 64, false},
				{2, 64, false}, {0, 64, false}},
			want: []int{4, 4, 4, 2, 2, 4},
		},
		{
			// A batch stops growing once it reaches 3·keysPer keys.
			name:   "merged-key cap",
			maxTot: 3 * keysPer,
			reqs:   []coalesceReq{{1, 64, false}, {1, 64, false}, {1, 64, false}, {1, 64, false}, {1, 64, false}},
			want:   []int{3, 3, 3, 2, 2},
		},
		{
			name: "a single queued request runs alone",
			reqs: []coalesceReq{{1, 64, false}},
			want: []int{0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Workers = 1
			cfg.BatchMaxRequests, cfg.BatchMaxTotal = tc.maxReqs, tc.maxTot
			parked, release := holdExecutor(t, &cfg)
			s := New(cfg)
			held := submitHeld(t, s, parked, "")

			type outcome struct {
				res Result
				err error
			}
			reqs := make([]*Request, len(tc.reqs))
			sums := make([]uint64, len(tc.reqs))
			outs := make([]chan outcome, len(tc.reqs))
			for i, c := range tc.reqs {
				reqs[i], sums[i] = c.request(keysPer, int64(100+i))
				outs[i] = make(chan outcome, 1)
				go func() {
					res, err := s.Submit(context.Background(), reqs[i])
					outs[i] <- outcome{res, err}
				}()
				// Admission order is submission order: wait for each job to
				// reach the heap before submitting the next.
				waitFor(t, 5*time.Second, func() bool { return s.q.len() == i+1 })
			}
			release()
			if err := <-held; err != nil {
				t.Fatalf("held Submit: %v", err)
			}
			for i := range reqs {
				o := <-outs[i]
				if o.err != nil {
					t.Fatalf("request %d: %v", i, o.err)
				}
				keys := keyColumn(reqs[i])
				checkSorted(t, keys)
				var sum uint64
				for _, k := range keys {
					sum += k
				}
				if sum != sums[i] {
					t.Fatalf("request %d: key checksum changed, keys leaked across requests", i)
				}
				if o.res.BatchRequests != tc.want[i] || o.res.Batched != (tc.want[i] > 0) {
					t.Fatalf("request %d: Batched=%v BatchRequests=%d, want %d",
						i, o.res.Batched, o.res.BatchRequests, tc.want[i])
				}
			}
			drainOK(t, s)
			if got := s.PendingAuxBytes(); got != 0 {
				t.Fatalf("ledger holds %d bytes after drain", got)
			}
		})
	}
}

// TestSubmitKeyOnlyAllocs bounds the single-request path's garbage: a
// key-only request sorts against a payload column leased from its arena,
// not a fresh row-id column per request.
func TestSubmitKeyOnlyAllocs(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.BatchMaxTuples = -1
	s := New(cfg)
	defer drainOK(t, s)

	const n = 1 << 14
	keys := make([]uint64, n)
	submit := func() {
		copy(keys, randKeys(n, 5))
		if _, err := s.Submit(context.Background(), &Request{Algo: partsort.MSB, Keys64: keys}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	for i := 0; i < 3; i++ {
		submit() // warm the arena
	}
	const runs = 10
	var before, after runtime.MemStats
	fresh := make([][]uint64, runs)
	for i := range fresh {
		fresh[i] = randKeys(n, int64(i))
	}
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := s.Submit(context.Background(), &Request{Algo: partsort.MSB, Keys64: fresh[i]}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	runtime.ReadMemStats(&after)
	perReq := (after.TotalAlloc - before.TotalAlloc) / runs
	if perReq >= n*8/4 {
		t.Fatalf("a %d-key key-only Submit allocated %d bytes; a payload column is %d", n, perReq, n*8)
	}
}

// TestSubmitSmallRequestsRunClean pins estAux to the kernels' fixed
// footprint: a lone request of any size, width and algorithm finishes on
// its first attempt instead of failing its ledger cap and degrading onto
// the in-place fallback, and the ledger settles to zero.
func TestSubmitSmallRequestsRunClean(t *testing.T) {
	s := New(testConfig())
	for _, algo := range []partsort.Algorithm{partsort.LSB, partsort.MSB, partsort.CMP} {
		for _, width := range []int{32, 64} {
			// The mid sizes are cache-resident for CMP (at most
			// sortalgo.CacheTuples), which comb-sorts them where they lie
			// and must not lease a tmp pair it never reads.
			mid := map[int][]int{32: {20000}, 64: {5000, 8192}}[width]
			for _, n := range append([]int{1, 2, 16, 64, 128, 255, 256, 512, 4096}, mid...) {
				req, _ := coalesceReq{width: width}.request(n, int64(n))
				req.Algo = algo
				res, err := s.Submit(context.Background(), req)
				if err != nil {
					t.Fatalf("%v/%d-bit/n=%d: Submit: %v", algo, width, n, err)
				}
				if res.Attempts != 1 || res.Degraded {
					t.Errorf("%v/%d-bit/n=%d: Attempts %d, Stage %d, Degraded %v; want one clean attempt",
						algo, width, n, res.Attempts, res.Stage, res.Degraded)
				}
				checkSorted(t, keyColumn(req))
			}
		}
	}
	drainOK(t, s)
	if got := s.PendingAuxBytes(); got != 0 {
		t.Fatalf("ledger holds %d bytes after drain", got)
	}
}

func TestValidateRequestTable(t *testing.T) {
	cases := []struct {
		name string
		req  *Request
		arg  bool // want *partsort.ArgError
		big  bool // want *TooLargeError
	}{
		{name: "nil request", req: nil, arg: true},
		{name: "bad algo", req: &Request{Algo: 9, Keys64: []uint64{1}}, arg: true},
		{name: "bad priority", req: &Request{Algo: partsort.LSB, Priority: 3, Keys64: []uint64{1}}, arg: true},
		{name: "no key column", req: &Request{Algo: partsort.LSB}, arg: true},
		{name: "both key columns", req: &Request{Algo: partsort.LSB, Keys64: []uint64{1}, Keys32: []uint32{1}}, arg: true},
		{name: "vals width mismatch", req: &Request{Algo: partsort.LSB, Keys64: []uint64{1}, Vals32: []uint32{1}}, arg: true},
		{name: "vals length mismatch", req: &Request{Algo: partsort.LSB, Keys64: []uint64{1, 2}, Vals64: []uint64{1}}, arg: true},
		{name: "tenant too long", req: &Request{Tenant: string(make([]byte, 65)), Algo: partsort.LSB, Keys64: []uint64{1}}, arg: true},
		{name: "too large", req: &Request{Algo: partsort.LSB, Keys64: make([]uint64, 5)}, big: true},
		{name: "ok", req: &Request{Algo: partsort.CMP, Keys64: []uint64{3, 1, 2}}},
	}
	for _, tc := range cases {
		err := validateRequest(tc.req, 4)
		var argErr *partsort.ArgError
		var bigErr *TooLargeError
		switch {
		case tc.arg && !errors.As(err, &argErr):
			t.Errorf("%s: want ArgError, got %v", tc.name, err)
		case tc.big && !errors.As(err, &bigErr):
			t.Errorf("%s: want TooLargeError, got %v", tc.name, err)
		case !tc.arg && !tc.big && err != nil:
			t.Errorf("%s: want nil, got %v", tc.name, err)
		}
	}
}

func TestQueuePriorityOrdering(t *testing.T) {
	q := newQueue(64, 1<<16)
	for i, prio := range []int{2, 0, 1, 0, 2} {
		q.push(&job{prio: prio, seq: uint64(i + 1)})
	}
	q.close()
	want := []struct{ prio, seq int }{{0, 2}, {0, 4}, {1, 3}, {2, 1}, {2, 5}}
	for i, w := range want {
		j, ok := q.pop()
		if !ok {
			t.Fatalf("pop %d: queue empty early", i)
		}
		if j.prio != w.prio || j.seq != uint64(w.seq) {
			t.Fatalf("pop %d: got (prio %d, seq %d), want (prio %d, seq %d)",
				i, j.prio, j.seq, w.prio, w.seq)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("closed empty queue still popping")
	}
}

func TestArenaPoolReuseAndClose(t *testing.T) {
	p := newArenaPool(2)
	a := p.acquire(1 << 12)
	if a == nil || a.w == nil {
		t.Fatal("acquire returned no arena")
	}
	class := a.class
	p.release(a)
	b := p.acquire(1 << 12)
	if b != a {
		t.Fatalf("same-class acquire did not reuse the pooled arena (class %d)", class)
	}
	p.release(b)
	p.closeAll()
	if got := p.auxBytes(); got != 0 {
		t.Fatalf("closed pool reports %d aux bytes", got)
	}
	if c := p.acquire(1 << 12); c != nil {
		t.Fatal("closed pool handed out an arena")
	}
}

func TestBatchSortSplitsExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cols := make([][]uint64, 5)
	sums := make([]uint64, 5)
	for i := range cols {
		cols[i] = make([]uint64, 100+rng.Intn(400))
		for j := range cols[i] {
			cols[i][j] = rng.Uint64() >> 16
			sums[i] += cols[i][j]
		}
	}
	if err := batchSort(context.Background(), cols, &partsort.SortOptions{Threads: 1, Retry: &partsort.RetryPolicy{}}); err != nil {
		t.Fatalf("batchSort: %v", err)
	}
	for i, c := range cols {
		var sum uint64
		for j := range c {
			if j > 0 && c[j-1] > c[j] {
				t.Fatalf("col %d not sorted at %d", i, j)
			}
			sum += c[j]
		}
		if sum != sums[i] {
			t.Fatalf("col %d checksum changed: keys leaked across requests", i)
		}
	}
}

// waitFor polls cond until it holds or the budget expires.
func waitFor(t *testing.T, budget time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %s", budget)
}
