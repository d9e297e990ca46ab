package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSnapshotSubIsZero(t *testing.T) {
	var c Counters
	if !c.Snapshot().IsZero() {
		t.Fatal("fresh counters not zero")
	}
	c.TuplesPartitioned.Add(100)
	c.BufferFlushes.Add(7)
	c.SwapCycles.Add(3)
	c.SyncClaims.Add(40)
	c.SyncParks.Add(1)
	c.RemoteBytes.Add(4096)
	c.SplitterSamples.Add(64)
	c.CombSortLeaves.Add(2)
	before := c.Snapshot()
	c.TuplesPartitioned.Add(50)
	c.RemoteBytes.Add(1024)
	delta := c.Snapshot().Sub(before)
	want := CounterSnapshot{TuplesPartitioned: 50, RemoteBytes: 1024}
	if delta != want {
		t.Fatalf("delta = %+v, want %+v", delta, want)
	}
	if delta.IsZero() {
		t.Fatal("nonzero delta reported zero")
	}
	if before.Sub(before) != (CounterSnapshot{}) {
		t.Fatal("self-subtraction not zero")
	}
	m := before.Map()
	if len(m) != 13 || m["tuples_partitioned"] != 100 || m["combsort_leaves"] != 2 {
		t.Fatalf("Map() = %v", m)
	}
}

func TestSessionLifecycleAndSpans(t *testing.T) {
	var buf bytes.Buffer
	s := Start(NewJSONLSink(&buf))
	if Cur() != s {
		t.Fatal("Start did not install the session")
	}
	sp := Begin("histogram", "phase", -1)
	sp.End()
	p := BeginPass(2, 3)
	p.EndN(1234)
	s.Counters.TuplesPartitioned.Add(99)
	if err := Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if Cur() != nil {
		t.Fatal("Stop did not uninstall the session")
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // 2 spans + final counters meta event
		t.Fatalf("got %d JSONL lines, want 3:\n%s", len(lines), buf.String())
	}
	type rec struct {
		Name   string            `json:"name"`
		Cat    string            `json:"cat"`
		Worker int               `json:"worker"`
		N      int64             `json:"n"`
		Args   map[string]uint64 `json:"args"`
	}
	var rs []rec
	for i, l := range lines {
		var r rec
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i, err, l)
		}
		rs = append(rs, r)
	}
	if rs[0].Name != "histogram" || rs[0].Cat != "phase" || rs[0].Worker != -1 {
		t.Fatalf("span 0 = %+v", rs[0])
	}
	if rs[1].Name != "pass-2" || rs[1].Cat != "pass" || rs[1].Worker != 3 || rs[1].N != 1234 {
		t.Fatalf("span 1 = %+v", rs[1])
	}
	if rs[2].Name != "counters" || rs[2].Cat != "meta" || rs[2].Args["tuples_partitioned"] != 99 {
		t.Fatalf("meta = %+v", rs[2])
	}
}

func TestStopIdempotentAndDisabledInert(t *testing.T) {
	if err := Stop(); err != nil { // no session installed
		t.Fatalf("Stop with no session: %v", err)
	}
	// Disabled spans are inert: zero-value handles End cleanly.
	Begin("x", "y", 0).End()
	BeginPass(0, -1).EndN(42)
	var h SpanHandle
	h.End()
	h.EndN(7)
}

// chromeDoc parses a Chrome trace array for validation.
func chromeDoc(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("not a valid JSON array: %v\n%s", err, data)
	}
	return events
}

func TestChromeSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeTraceSink(&buf)
	s.Emit(Event{Name: "pass-0", Cat: "pass", Worker: -1, Start: 5 * time.Microsecond, Dur: time.Millisecond, N: 100})
	s.Emit(Event{Name: "scatter", Cat: "worker", Worker: 2, Start: 10 * time.Microsecond}) // zero duration
	s.Emit(Event{Name: "counters", Cat: "meta", Worker: -1, Args: map[string]uint64{"tuples_partitioned": 100}})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	events := chromeDoc(t, buf.Bytes())
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	e0 := events[0]
	if e0["ph"] != "X" || e0["pid"] != float64(1) || e0["tid"] != float64(0) || e0["ts"] != float64(5) {
		t.Fatalf("event 0 = %v", e0)
	}
	if e0["args"].(map[string]any)["n"] != float64(100) {
		t.Fatalf("event 0 args = %v", e0["args"])
	}
	if events[1]["tid"] != float64(3) || events[1]["dur"] != float64(0) {
		t.Fatalf("event 1 = %v", events[1])
	}
	if events[2]["ph"] != "i" {
		t.Fatalf("meta event = %v", events[2])
	}
	// Emit after Close must not corrupt the document.
	s.Emit(Event{Name: "late", Cat: "worker"})
	chromeDoc(t, buf.Bytes())
}

func TestChromeSinkZeroEvents(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeTraceSink(&buf)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if events := chromeDoc(t, buf.Bytes()); len(events) != 0 {
		t.Fatalf("empty session produced %d events", len(events))
	}
	if err := s.Close(); err != nil { // double close
		t.Fatalf("second Close: %v", err)
	}
}

func TestSinksConcurrentEmit(t *testing.T) {
	for name, mk := range map[string]func(*bytes.Buffer) Sink{
		"jsonl":  func(b *bytes.Buffer) Sink { return NewJSONLSink(b) },
		"chrome": func(b *bytes.Buffer) Sink { return NewChromeTraceSink(b) },
	} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			s := mk(&buf)
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						s.Emit(Event{Name: "e", Cat: "worker", Worker: w, Dur: time.Microsecond, N: int64(i)})
					}
				}(w)
			}
			wg.Wait()
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if name == "chrome" {
				if got := len(chromeDoc(t, buf.Bytes())); got != 400 {
					t.Fatalf("got %d events, want 400", got)
				}
			} else {
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				if len(lines) != 400 {
					t.Fatalf("got %d lines, want 400", len(lines))
				}
				for _, l := range lines {
					if !json.Valid([]byte(l)) {
						t.Fatalf("invalid JSONL line: %s", l)
					}
				}
			}
		})
	}
}

// TestDisabledPathAllocs pins the contract that the disabled hooks never
// allocate: the hot partition loops run them per kernel call.
func TestDisabledPathAllocs(t *testing.T) {
	if Cur() != nil {
		t.Fatal("test requires no installed session")
	}
	if n := testing.AllocsPerRun(100, func() {
		if o := Cur(); o != nil {
			o.Counters.TuplesPartitioned.Add(1)
		}
		sp := Begin("x", "y", 0)
		sp.EndN(1)
		BeginPass(1, 2).End()
	}); n != 0 {
		t.Fatalf("disabled hooks allocate %.1f times per run, want 0", n)
	}
}

func BenchmarkDisabledHook(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if o := Cur(); o != nil {
			o.Counters.TuplesPartitioned.Add(1)
		}
	}
}

// TestPushLabelsInterleavedScopesRetainNothing replays, on one
// goroutine, the order two concurrent sorts' label scopes take (A
// pushes, B pushes, A restores, B restores) and checks that the live
// heap stays flat: a restore may republish a finished scope, but no
// scope may keep its predecessors alive.
func TestPushLabelsInterleavedScopesRetainNothing(t *testing.T) {
	was := ProfileLabelsEnabled()
	EnableProfileLabels(true)
	defer func() {
		EnableProfileLabels(was)
		curLabels.Store(nil)
		pprof.SetGoroutineLabels(context.Background())
	}()
	interleave := func(n int) {
		for i := 0; i < n; i++ {
			restoreA := PushLabels("lsb", "run")
			restoreB := PushLabels("msb", "run")
			restoreA()
			restoreB()
		}
	}
	live := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	interleave(100)
	before := live()
	interleave(20000)
	if after := live(); after > before+256<<10 {
		t.Fatalf("20000 interleaved label scopes grew the live heap by %d bytes", after-before)
	}
}
