package sortalgo

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/numa"
	"repro/internal/obs"
)

func TestStatsTimedAndAdd(t *testing.T) {
	var st Stats
	phases := []struct {
		p   phase
		get func() time.Duration
	}{
		{phAlloc, func() time.Duration { return st.Alloc }},
		{phHistogram, func() time.Duration { return st.Histogram }},
		{phPartition, func() time.Duration { return st.Partition }},
		{phShuffle, func() time.Duration { return st.Shuffle }},
		{phLocal, func() time.Duration { return st.LocalRadix }},
		{phCache, func() time.Duration { return st.CacheSort }},
	}
	for _, ph := range phases {
		ran := false
		timed(&st, "test", ph.p, func() {
			ran = true
			time.Sleep(time.Millisecond)
		})
		if !ran {
			t.Fatalf("phase %s: timed did not run fn", ph.p.name())
		}
		if ph.get() < time.Millisecond {
			t.Fatalf("phase %s: bucket = %v, want >= 1ms", ph.p.name(), ph.get())
		}
	}
	// add accumulates, and Total sums every bucket.
	st = Stats{}
	var want time.Duration
	for i, ph := range phases {
		d := time.Duration(i+1) * time.Millisecond
		st.add(ph.p, d)
		st.add(ph.p, d)
		want += 2 * d
		if ph.get() != 2*d {
			t.Fatalf("phase %s: accumulated %v, want %v", ph.p.name(), ph.get(), 2*d)
		}
	}
	if st.Total() != want {
		t.Fatalf("Total() = %v, want %v", st.Total(), want)
	}
}

func TestStatsNilSafe(t *testing.T) {
	var s *Stats
	s.add(phHistogram, time.Second)
	ran := false
	timed(nil, "test", phLocal, func() { ran = true })
	if !ran {
		t.Fatal("timed(nil, ...) did not run fn")
	}
	instrument(nil, "lsb", func() { ran = true })
}

func TestStatsPhaseNames(t *testing.T) {
	want := map[phase]string{
		phAlloc: "alloc", phHistogram: "histogram", phPartition: "partition",
		phShuffle: "shuffle", phLocal: "local", phCache: "cache",
	}
	for p, n := range want {
		if p.name() != n {
			t.Fatalf("phase %d name = %q, want %q", p, p.name(), n)
		}
	}
	if phase(99).name() != "unknown" {
		t.Fatalf("out-of-range phase name = %q", phase(99).name())
	}
}

func TestStatsCountersZeroWhenDisabled(t *testing.T) {
	if obs.Cur() != nil {
		t.Fatal("test requires no installed obs session")
	}
	n := 1 << 14
	keys := gen.Uniform[uint32](n, 0, 1)
	vals := gen.Dense[uint32](n, 2)
	var st Stats
	LSB(keys, vals, make([]uint32, n), make([]uint32, n), Options{Threads: 2, Stats: &st})
	if !st.Counters.IsZero() {
		t.Fatalf("obs disabled but Counters = %+v", st.Counters)
	}
	if st.Passes == 0 || st.Total() == 0 {
		t.Fatal("timing stats missing") // timing must work without obs
	}
}

// TestLSBCounterReconciliation pins the trace-counter invariant (checked
// end to end by the root TestChromeTraceReconciles): LSB scatters
// all n tuples exactly once per pass, so TuplesPartitioned == passes * n —
// for single-region and NUMA runs alike.
func TestLSBCounterReconciliation(t *testing.T) {
	n := 1 << 15
	for name, topo := range map[string]*numa.Topology{
		"regions1": nil,
		"regions4": numa.NewTopology(4),
	} {
		t.Run(name, func(t *testing.T) {
			keys := gen.Uniform[uint32](n, 0, 21)
			vals := gen.Dense[uint32](n, 22)
			obs.Start(nil)
			t.Cleanup(func() { _ = obs.Stop() })
			var st Stats
			LSB(keys, vals, make([]uint32, n), make([]uint32, n),
				Options{Threads: 4, Topo: topo, Stats: &st})
			want := uint64(st.Passes) * uint64(n)
			if st.Counters.TuplesPartitioned != want {
				t.Fatalf("TuplesPartitioned = %d, want passes*n = %d*%d = %d",
					st.Counters.TuplesPartitioned, st.Passes, n, want)
			}
			if topo != nil && st.Counters.RemoteBytes == 0 {
				t.Fatal("NUMA run recorded no remote bytes")
			}
		})
	}
}

func TestSortsFillStatsCounters(t *testing.T) {
	n := 1 << 14
	sorts := map[string]func(k, v, tk, tv []uint32, o Options){
		"lsb": LSB[uint32],
		"msb": func(k, v, tk, tv []uint32, o Options) { MSB(k, v, o) },
		"cmp": func(k, v, tk, tv []uint32, o Options) { CMP(k, v, tk, tv, o) },
	}
	for name, sortFn := range sorts {
		t.Run(name, func(t *testing.T) {
			keys := gen.Uniform[uint32](n, 0, 31)
			vals := gen.Dense[uint32](n, 32)
			obs.Start(nil)
			t.Cleanup(func() { _ = obs.Stop() })
			var st Stats
			// Small cache threshold forces msb/cmp onto the partitioning
			// path (a cache-resident input would comb-sort directly).
			sortFn(keys, vals, make([]uint32, n), make([]uint32, n),
				Options{Threads: 2, Stats: &st, CacheTuples: 2048})
			if st.Counters.TuplesPartitioned < uint64(n) {
				t.Fatalf("TuplesPartitioned = %d, want >= %d", st.Counters.TuplesPartitioned, n)
			}
		})
	}
}

// TestZeroTupleSortTrace pins that degenerate runs still produce valid
// trace documents (satellite 6).
func TestZeroTupleSortTrace(t *testing.T) {
	var buf bytes.Buffer
	obs.Start(obs.NewChromeTraceSink(&buf))
	var st Stats
	LSB[uint32](nil, nil, nil, nil, Options{Threads: 2, Stats: &st})
	if err := obs.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("zero-tuple trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if !st.Counters.IsZero() {
		t.Fatalf("zero-tuple run counted events: %+v", st.Counters)
	}
}

func TestInstrumentCapturesDelta(t *testing.T) {
	s := obs.Start(nil)
	t.Cleanup(func() { _ = obs.Stop() })
	s.Counters.TuplesPartitioned.Add(1000) // pre-existing noise
	var st Stats
	instrument(&st, "test", func() {
		s.Counters.TuplesPartitioned.Add(77)
		s.Counters.SwapCycles.Add(5)
	})
	if st.Counters.TuplesPartitioned != 77 || st.Counters.SwapCycles != 5 {
		t.Fatalf("delta = %+v, want {77, ..., 5}", st.Counters)
	}
}
