// Command sortcli sorts columnar key/payload files (or generated
// workloads) with the paper's three sorting algorithms.
//
// File format: raw little-endian unsigned integers of the selected width,
// one file per column. Without -keys, a workload is generated.
//
// Examples:
//
//	sortcli -n 10000000 -dist zipf -theta 1.2 -algo msb -threads 4
//	sortcli -keys keys.bin -vals rids.bin -width 64 -algo lsb -out sorted
//	sortcli -n 1000000 -algo lsb -stats -json          # machine-readable stats
//	sortcli -n 1000000 -algo lsb -trace trace.json     # open in Perfetto
//	sortcli -n 1000000 -algo lsb -gotrace go.trace     # go tool trace go.trace
//	sortcli -n 1000000 -algo cmp -resilient -timeout 30s -max-aux 268435456
//
// Exit codes: 0 success; 1 I/O or usage problems; 2 invalid arguments
// (*ArgError); 3 a contained worker panic (*InternalError, stack on
// stderr); 4 cancellation or deadline expiry; 5 auxiliary-memory budget
// exceeded (*ResourceError).
package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/trace"
	"strings"
	"syscall"
	"time"

	partsort "repro"
	"repro/internal/gen"
	"repro/internal/kv"
	"repro/internal/obs"
)

// cfg bundles the command-line configuration.
type cfg struct {
	n       int
	dist    string
	theta   float64
	domain  uint64
	algo    string
	threads int
	regions int
	keysIn  string
	valsIn  string
	out     string
	stats   bool
	jsonOut bool
	seed    uint64
	dict    bool
	verify  bool
	repeat  int

	resilient bool
	timeout   time.Duration
	maxAux    int64
}

// metricsSink, when non-nil, is the live histogram aggregator wrapped
// around the trace sink; run reads its summary into the JSON result.
var metricsSink *obs.MetricsSink

func main() {
	var c cfg
	flag.IntVar(&c.n, "n", 1<<20, "tuples to generate when no -keys file is given")
	flag.StringVar(&c.dist, "dist", "uniform", "generated distribution: uniform, dense, zipf, sorted, reversed")
	flag.Float64Var(&c.theta, "theta", 1.0, "Zipf parameter for -dist zipf")
	flag.Uint64Var(&c.domain, "domain", 0, "key domain size (0 = full width)")
	flag.StringVar(&c.algo, "algo", "lsb", "sorting algorithm: lsb, msb, cmp")
	width := flag.Int("width", 32, "key/payload width in bits: 32 or 64")
	flag.IntVar(&c.threads, "threads", 4, "worker goroutines")
	flag.IntVar(&c.regions, "regions", 1, "simulated NUMA regions")
	flag.StringVar(&c.keysIn, "keys", "", "key column file (raw little-endian)")
	flag.StringVar(&c.valsIn, "vals", "", "payload column file (default: record ids)")
	flag.StringVar(&c.out, "out", "", "output prefix; writes <out>.keys and <out>.vals")
	flag.BoolVar(&c.stats, "stats", false, "print the per-phase breakdown and event counters")
	flag.BoolVar(&c.jsonOut, "json", false, "print the result as one machine-readable JSON object")
	flag.Uint64Var(&c.seed, "seed", 42, "generator seed")
	flag.BoolVar(&c.dict, "dict", false, "dictionary-compress keys before sorting (order-preserving), decode after — reduces LSB passes on sparse domains")
	flag.BoolVar(&c.verify, "verify", false, "keep a copy of the input and verify the output multiset (and stability for lsb)")
	flag.IntVar(&c.repeat, "repeat", 1, "sort the input this many times, restoring it between runs — keeps the process busy for live metric scrapes")
	flag.BoolVar(&c.resilient, "resilient", false, "run under the retry/fallback supervisor: contained worker failures retry in place, then degrade to conservative and in-place plans")
	flag.DurationVar(&c.timeout, "timeout", 0, "overall deadline for the sort (0 = none); expiry exits with code 4")
	flag.Int64Var(&c.maxAux, "max-aux", 0, "auxiliary-memory budget in bytes (0 = half of available memory); exceeding it exits with code 5 (or degrades under -resilient)")
	traceOut := flag.String("trace", "", "write a span trace to this file: .jsonl extension selects JSON-lines, anything else Chrome trace-event JSON (open in Perfetto)")
	gotrace := flag.String("gotrace", "", "write a runtime/trace file for `go tool trace`")
	metricsAddr := flag.String("metrics-addr", "", "serve live telemetry on this address while sorting (e.g. 127.0.0.1:9090): Prometheus text on /metrics, expvar JSON on /debug/vars, pprof with algo/phase/worker profile labels on /debug/pprof/; SIGINT shuts the endpoint down gracefully")
	flag.Parse()

	// Start the Go execution tracer first so the obs session sees it and
	// annotates passes as runtime/trace regions.
	if *gotrace != "" {
		f, err := os.Create(*gotrace)
		if err != nil {
			fatal(err.Error())
		}
		if err := trace.Start(f); err != nil {
			fatal(err.Error())
		}
		defer trace.Stop()
	}
	if *traceOut != "" || c.stats || c.jsonOut || *metricsAddr != "" {
		var sink partsort.TraceSink
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err.Error())
			}
			defer f.Close()
			if strings.HasSuffix(*traceOut, ".jsonl") {
				sink = partsort.NewJSONLSink(f)
			} else {
				sink = partsort.NewChromeTraceSink(f)
			}
		}
		// Always aggregate spans into the live histogram registry: it
		// feeds both the -json span_hist summary and /metrics.
		metricsSink = obs.NewMetricsSink(nil, sink)
		partsort.StartObservability(metricsSink)
		defer func() {
			if err := partsort.StopObservability(); err != nil {
				fatal("closing trace sink: " + err.Error())
			}
		}()
	}
	if *metricsAddr != "" {
		srv, err := partsort.ServeMetrics(*metricsAddr)
		if err != nil {
			fatal("metrics endpoint: " + err.Error())
		}
		partsort.EnableProfileLabels(true)
		srv.ShutdownOnSignal(os.Interrupt, syscall.SIGTERM)
		if !c.jsonOut {
			fmt.Printf("serving live metrics on %s/metrics (pprof on /debug/pprof/)\n", srv.URL())
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		}()
	}

	switch *width {
	case 32:
		run[uint32](c)
	case 64:
		run[uint64](c)
	default:
		fatal("width must be 32 or 64")
	}
}

// jsonResult is the machine-readable output of -json: the figure-harness
// and CI contract (phase breakdown in nanoseconds, pass count, NUMA
// traffic, region bounds, and the observability counter snapshot).
type jsonResult struct {
	Algo         string               `json:"algo"`
	N            int                  `json:"n"`
	WidthBits    int                  `json:"width_bits"`
	Threads      int                  `json:"threads"`
	Regions      int                  `json:"regions"`
	Dist         string               `json:"dist,omitempty"`
	ElapsedNs    int64                `json:"elapsed_ns"`
	MTuplesPerS  float64              `json:"mtuples_per_s"`
	Passes       int                  `json:"passes"`
	RemoteBytes  uint64               `json:"remote_bytes"`
	PeakAuxBytes uint64               `json:"peak_aux_bytes"`
	RegionBounds []int                `json:"region_bounds,omitempty"`
	PhaseNs      map[string]int64     `json:"phase_ns"`
	Counters     partsort.ObsCounters `json:"counters"`
	// SpanHist is the live latency-histogram summary per span key
	// ("cat/name"), aggregated by the metrics sink; the root package's
	// TestChromeTraceReconciles checks it against the trace.
	SpanHist map[string]obs.SpanStat `json:"span_hist,omitempty"`
	Verified *bool                   `json:"verified,omitempty"`
}

func run[K kv.Key](c cfg) {
	var keys, vals []K
	if c.keysIn != "" {
		keys = mustRead[K](c.keysIn)
		if c.valsIn != "" {
			vals = mustRead[K](c.valsIn)
			if len(vals) != len(keys) {
				fatal("key and payload files have different lengths")
			}
		} else {
			vals = partsort.RIDs[K](len(keys))
		}
	} else {
		switch c.dist {
		case "uniform":
			keys = gen.Uniform[K](c.n, c.domain, c.seed)
		case "dense":
			keys = gen.Dense[K](c.n, c.seed)
		case "zipf":
			d := c.domain
			if d == 0 {
				d = uint64(c.n)
			}
			keys = gen.ZipfKeys[K](c.n, d, c.theta, c.seed)
		case "sorted":
			keys = gen.Sorted[K](c.n, c.domain, c.seed)
		case "reversed":
			keys = gen.Reversed[K](c.n, c.domain, c.seed)
		default:
			fatal("unknown distribution " + c.dist)
		}
		vals = partsort.RIDs[K](len(keys))
	}

	var origK, origV []K
	if c.verify {
		origK = append([]K(nil), keys...)
		origV = append([]K(nil), vals...)
	}

	var d *partsort.Dictionary[K]
	if c.dict {
		var err error
		dictStart := time.Now()
		d = partsort.BuildDictionary(keys)
		keys, err = d.EncodeAll(keys)
		if err != nil {
			fatal(err.Error())
		}
		if !c.jsonOut {
			fmt.Printf("dictionary: %d distinct values -> %d-bit dense codes (built in %.2f ms)\n",
				d.Cardinality(), bitsFor(d.Cardinality()), float64(time.Since(dictStart).Microseconds())/1000)
		}
	}

	var baseK, baseV []K
	if c.repeat > 1 {
		baseK = append([]K(nil), keys...)
		baseV = append([]K(nil), vals...)
	}
	var st partsort.SortStats
	// A workspace routes every internal scratch array through the metered
	// arena, so st.PeakAuxBytes reports the run's true auxiliary footprint
	// (and repeat runs reuse buffers instead of reallocating).
	wsp := partsort.NewWorkspace()
	defer wsp.Close()
	opt := &partsort.SortOptions{Threads: c.threads, Regions: c.regions, Stats: &st, Workspace: wsp, MaxAuxBytes: c.maxAux}
	var algo partsort.Algorithm
	switch c.algo {
	case "lsb":
		algo = partsort.LSB
	case "msb":
		algo = partsort.MSB
	case "cmp":
		algo = partsort.CMP
	default:
		fatal("unknown algorithm " + c.algo)
	}
	ctx := context.Background()
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	var rst partsort.RetryStats
	if c.resilient {
		opt.Retry = &partsort.RetryPolicy{Stats: &rst}
	}
	start := time.Now()
	for r := 0; r < max(c.repeat, 1); r++ {
		if r > 0 {
			copy(keys, baseK)
			copy(vals, baseV)
		}
		if err := partsort.SortCtx(ctx, algo, keys, vals, opt); err != nil {
			exitErr(err)
		}
	}
	elapsed := time.Since(start)
	if c.resilient && c.stats && !c.jsonOut && rst.Attempts > 1 {
		fmt.Printf("supervisor: %d attempts, final stage %d, degraded=%v, backoff %v\n",
			rst.Attempts, rst.Stage, rst.Degraded, rst.Backoff)
	}

	if !partsort.IsSorted(keys) {
		fatal("output not sorted (bug)")
	}
	if d != nil {
		var err error
		keys, err = d.DecodeAll(keys)
		if err != nil {
			fatal(err.Error())
		}
		if !partsort.IsSorted(keys) {
			fatal("decoded output not sorted (order-preservation bug)")
		}
	}

	var verified *bool
	if c.verify {
		if !partsort.SameMultiset(origK, origV, keys, vals) {
			fatal("verification failed: output tuple multiset differs from input")
		}
		if c.algo == "lsb" && c.valsIn == "" && !partsort.IsStableSorted(keys, vals) {
			fatal("verification failed: lsb output not stable")
		}
		ok := true
		verified = &ok
	}

	rate := 0.0
	if elapsed > 0 && len(keys) > 0 {
		rate = float64(len(keys)) * float64(max(c.repeat, 1)) / elapsed.Seconds() / 1e6
	}

	if c.jsonOut {
		res := jsonResult{
			Algo:         c.algo,
			N:            len(keys),
			WidthBits:    kv.Width[K](),
			Threads:      c.threads,
			Regions:      c.regions,
			ElapsedNs:    elapsed.Nanoseconds(),
			MTuplesPerS:  rate,
			Passes:       st.Passes,
			RemoteBytes:  st.RemoteBytes,
			PeakAuxBytes: st.PeakAuxBytes,
			RegionBounds: st.RegionBounds,
			PhaseNs: map[string]int64{
				"alloc":     st.Alloc.Nanoseconds(),
				"histogram": st.Histogram.Nanoseconds(),
				"partition": st.Partition.Nanoseconds(),
				"shuffle":   st.Shuffle.Nanoseconds(),
				"local":     st.LocalRadix.Nanoseconds(),
				"cache":     st.CacheSort.Nanoseconds(),
				"total":     st.Total().Nanoseconds(),
			},
			Counters: st.Counters,
			Verified: verified,
		}
		if metricsSink != nil {
			res.SpanHist = metricsSink.Summary()
		}
		if c.keysIn == "" {
			res.Dist = c.dist
		}
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(res); err != nil {
			fatal(err.Error())
		}
	} else {
		fmt.Printf("%s sorted %d %d-bit tuples in %.2f ms (%.1f Mtuples/s)\n",
			c.algo, len(keys), kv.Width[K](), float64(elapsed.Microseconds())/1000, rate)
		if c.stats {
			fmt.Printf("  histogram %v  partition %v  shuffle %v  local %v  cache %v  (%d passes, peak aux %d B)\n",
				st.Histogram, st.Partition, st.Shuffle, st.LocalRadix, st.CacheSort, st.Passes, st.PeakAuxBytes)
			cs := st.Counters
			fmt.Printf("  counters: tuples %d  flushes %d  swap-cycles %d  sync-claims %d  parks %d  remote %d B  samples %d  comb-leaves %d\n",
				cs.TuplesPartitioned, cs.BufferFlushes, cs.SwapCycles, cs.SyncClaims,
				cs.SyncParks, cs.RemoteBytes, cs.SplitterSamples, cs.CombSortLeaves)
		}
		if verified != nil {
			fmt.Println("verified: sorted, multiset preserved" +
				map[bool]string{true: ", stable", false: ""}[c.algo == "lsb" && c.valsIn == ""])
		}
	}

	if c.out != "" {
		mustWrite(c.out+".keys", keys)
		mustWrite(c.out+".vals", vals)
		if !c.jsonOut {
			fmt.Printf("wrote %s.keys and %s.vals\n", c.out, c.out)
		}
	}
}

func mustRead[K kv.Key](path string) []K {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err.Error())
	}
	w := kv.Width[K]() / 8
	if len(data)%w != 0 {
		fatal(fmt.Sprintf("%s: size %d not a multiple of %d bytes", path, len(data), w))
	}
	out := make([]K, len(data)/w)
	for i := range out {
		if w == 4 {
			out[i] = K(binary.LittleEndian.Uint32(data[i*4:]))
		} else {
			out[i] = K(binary.LittleEndian.Uint64(data[i*8:]))
		}
	}
	return out
}

func mustWrite[K kv.Key](path string, col []K) {
	w := kv.Width[K]() / 8
	data := make([]byte, len(col)*w)
	for i, v := range col {
		if w == 4 {
			binary.LittleEndian.PutUint32(data[i*4:], uint32(v))
		} else {
			binary.LittleEndian.PutUint64(data[i*8:], uint64(v))
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err.Error())
	}
}

func bitsFor(card int) int {
	b := 0
	for 1<<b < card {
		b++
	}
	return max(b, 1)
}

// exitErr maps a Try/supervisor error onto the documented exit codes,
// printing the contained worker stack for *InternalError so the failure
// site is diagnosable from the terminal.
func exitErr(err error) {
	fmt.Fprintln(os.Stderr, "sortcli:", err)
	var ae *partsort.ArgError
	var ie *partsort.InternalError
	var re *partsort.ResourceError
	switch {
	case errors.As(err, &ae):
		os.Exit(2)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		os.Exit(4)
	case errors.As(err, &re):
		os.Exit(5)
	case errors.As(err, &ie):
		if len(ie.Stack) > 0 {
			fmt.Fprintf(os.Stderr, "contained worker stack:\n%s\n", ie.Stack)
		}
		os.Exit(3)
	}
	os.Exit(1)
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "sortcli:", msg)
	os.Exit(1)
}
