package partsort

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/obs"
)

// traceEvent mirrors the Chrome trace-event fields the sinks emit.
type traceEvent struct {
	Name string   `json:"name"`
	Cat  string   `json:"cat"`
	Ph   string   `json:"ph"`
	Ts   *float64 `json:"ts"`
	Dur  *float64 `json:"dur"`
	Pid  *int     `json:"pid"`
	Tid  *int     `json:"tid"`
}

// parseChromeTrace decodes a Chrome trace document and checks every
// event's shape: complete ("X") spans carry name, non-negative ts and
// dur, pid and tid; instant ("i") events carry name and ts; nothing else
// appears.
func parseChromeTrace(t *testing.T, doc []byte) []traceEvent {
	t.Helper()
	var events []traceEvent
	if err := json.Unmarshal(doc, &events); err != nil {
		t.Fatalf("not a JSON array of trace events: %v\n%s", err, doc)
	}
	for i, e := range events {
		switch e.Ph {
		case "X":
			if e.Name == "" || e.Ts == nil || e.Dur == nil || e.Pid == nil || e.Tid == nil {
				t.Fatalf("event %d: complete event missing name/ts/dur/pid/tid: %+v", i, e)
			}
			if *e.Ts < 0 || *e.Dur < 0 {
				t.Fatalf("event %d: negative ts or dur", i)
			}
		case "i":
			if e.Name == "" || e.Ts == nil {
				t.Fatalf("event %d: instant event missing name/ts", i)
			}
		default:
			t.Fatalf("event %d: unexpected phase %q", i, e.Ph)
		}
	}
	return events
}

// TestChromeTraceReconciles runs a 4-thread LSB sort under the sink
// composition sortcli uses (a metrics sink teeing into a Chrome trace
// sink) and reconciles the three views of the run: the trace has pass
// spans and spans from at least 4 worker tids; LSB's counters satisfy
// tuples_partitioned == passes·n; per span key the histogram count equals
// the trace span count and the duration sums agree, in both directions;
// and the summed pass spans bracket the partition/shuffle/local wall
// clocks. An empty sort must still close to a valid trace document.
func TestChromeTraceReconciles(t *testing.T) {
	const n, threads = 200000, 4
	var buf bytes.Buffer
	// A private registry keeps the histogram counts to this run; the
	// default one accumulates across every sink in the process.
	ms := obs.NewMetricsSink(obs.NewRegistry(), NewChromeTraceSink(&buf))
	StartObservability(ms)
	t.Cleanup(func() { _ = StopObservability() })
	keys := gen.Uniform[uint32](n, 0, 42)
	vals := RIDs[uint32](n)
	w := NewWorkspace()
	defer w.Close()
	var st SortStats
	SortLSB(keys, vals, &SortOptions{Threads: threads, Stats: &st, Workspace: w})
	hist := ms.Summary()
	if err := StopObservability(); err != nil {
		t.Fatal(err)
	}

	if want := uint64(st.Passes) * n; st.Counters.TuplesPartitioned != want {
		t.Fatalf("tuples_partitioned = %d, want passes*n = %d*%d = %d",
			st.Counters.TuplesPartitioned, st.Passes, n, want)
	}
	type agg struct {
		count uint64
		sumUs float64
	}
	spans := map[string]agg{}
	tids := map[int]bool{}
	var passNs float64
	for _, e := range parseChromeTrace(t, buf.Bytes()) {
		if e.Ph != "X" {
			continue
		}
		a := spans[e.Cat+"/"+e.Name]
		a.count++
		a.sumUs += *e.Dur
		spans[e.Cat+"/"+e.Name] = a
		switch e.Cat {
		case "pass":
			passNs += *e.Dur * 1e3
		case "worker":
			tids[*e.Tid] = true
		}
	}
	if passNs == 0 {
		t.Fatal("no spans with cat \"pass\" in the trace")
	}
	if len(tids) < threads {
		t.Fatalf("spans from %d distinct worker tids, want >= %d", len(tids), threads)
	}
	// The metrics sink tees to the trace sink, so both views see the same
	// spans; the sums differ only by the trace's microsecond rounding.
	for k, a := range spans {
		h, ok := hist[k]
		if !ok || h.Count != a.count {
			t.Fatalf("span key %q: histogram count %d (present %v) != trace span count %d", k, h.Count, ok, a.count)
		}
		traceNs := a.sumUs * 1e3
		if tol := 0.001*traceNs + 1e3*float64(a.count); math.Abs(float64(h.SumNs)-traceNs) > tol {
			t.Fatalf("span key %q: histogram sum %d ns vs trace sum %.0f ns (tol %.0f)", k, h.SumNs, traceNs, tol)
		}
	}
	for k, h := range hist {
		if _, ok := spans[k]; !ok && h.Count > 0 {
			t.Fatalf("span_hist key %q has %d samples but no trace spans", k, h.Count)
		}
	}
	// Single-region LSB nests each pass span inside (or just around) one
	// phase timer on one goroutine. The bounds are loose: this catches
	// unit errors and double counting, not timing.
	const slack = 2e6 // ns of span begin/end skew
	if move := float64(st.Partition + st.Shuffle + st.LocalRadix); passNs > 1.25*move+slack {
		t.Fatalf("pass spans sum to %.0f ns, over 1.25x the partition+shuffle+local wall clock (%.0f ns)", passNs, move)
	}
	if lower := float64(st.Partition + st.LocalRadix); passNs < 0.5*lower-slack {
		t.Fatalf("pass spans sum to %.0f ns, under half the partition+local wall clock (%.0f ns)", passNs, lower)
	}

	buf.Reset()
	StartObservability(NewMetricsSink(NewChromeTraceSink(&buf)))
	SortLSB[uint32](nil, nil, &SortOptions{Threads: threads})
	if err := StopObservability(); err != nil {
		t.Fatal(err)
	}
	parseChromeTrace(t, buf.Bytes())
}

// TestServeMetricsLive scrapes the metrics endpoint while sorts of every
// algorithm run in the background, with the metrics sink and profile
// labels on: the exposition must parse (checkExposition), carry every
// required family and series, the expvar view must be JSON with the
// partsort export, the goroutine profile must show algo labels, and
// shutting the endpoint down must leak no goroutines.
func TestServeMetricsLive(t *testing.T) {
	StartObservability(NewMetricsSink(nil))
	EnableProfileLabels(true)
	base := runtime.NumGoroutine()
	srv, err := ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	sorted := make(chan struct{}) // closed once every algorithm has run
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		const n = 1 << 18
		ref, rids := gen.Uniform[uint32](n, 0, 42), RIDs[uint32](n)
		keys := make([]uint32, n)
		vals := make([]uint32, n)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			copy(keys, ref)
			copy(vals, rids)
			if err := SortCtx(context.Background(), []Algorithm{LSB, MSB, CMP}[i%3], keys, vals, &SortOptions{Threads: 4}); err != nil {
				t.Error(err)
				return
			}
			if i == 2 {
				close(sorted)
			}
		}
	}()
	var once sync.Once
	shutdown := func() {
		once.Do(func() {
			close(stop)
			wg.Wait()
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Errorf("shutdown: %v", err)
			}
			http.DefaultClient.CloseIdleConnections()
		})
	}
	t.Cleanup(func() {
		shutdown()
		EnableProfileLabels(false)
		_ = StopObservability()
	})
	select {
	case <-sorted:
	case <-time.After(30 * time.Second):
		t.Fatal("background sorts did not cover every algorithm")
	}

	body := httpGet(t, srv.URL()+"/metrics")
	fams := checkExposition(t, body)
	for _, want := range []string{
		"partsort_events_total",
		"partsort_workspace_hit_ratio",
		"partsort_aux_bytes",
		"partsort_phase_duration_seconds",
		"partsort_pass_duration_seconds",
		"partsort_sort_duration_seconds",
		"partsort_goroutines",
		"partsort_heap_alloc_bytes",
		"partsort_gc_cycles_total",
		"partsort_retry_attempts_total",
	} {
		if _, ok := fams[want]; !ok {
			t.Fatalf("scrape missing family %s; families: %v", want, fams)
		}
	}
	for _, series := range []string{
		`partsort_events_total{event="tuples_partitioned"}`,
		`partsort_retry_attempts_total{outcome="retry"}`,
		`partsort_retry_attempts_total{outcome="fallback"}`,
		`partsort_retry_attempts_total{outcome="degrade"}`,
		`partsort_phase_duration_seconds_count{algo="lsb"`,
	} {
		if !strings.Contains(body, series) {
			t.Fatalf("scrape lacks the series %s", series)
		}
	}

	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL()+"/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["partsort"]; !ok {
		t.Fatal("/debug/vars missing the partsort export")
	}

	// Labels are visible only while a labelled scope is live, so poll.
	labeled := false
	for try := 0; try < 40 && !labeled; try++ {
		prof := httpGet(t, srv.URL()+"/debug/pprof/goroutine?debug=1")
		labeled = strings.Contains(prof, `"algo":`) || strings.Contains(prof, "algo:")
		if !labeled {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if !labeled {
		t.Fatal("goroutine profile never showed algo labels while sorting")
	}

	shutdown()
	waitGoroutines(t, base)
}

// httpGet fetches url and returns the body of a 200 response.
func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return string(body)
}

// checkExposition validates a Prometheus text-format scrape and returns
// family -> TYPE. TYPE comments must be well formed and unique, every
// sample numeric and after its family's TYPE. Every histogram series
// must have strictly increasing le bounds (whole numbers unless the
// family is in _seconds), integer cumulative buckets that never
// decrease, and a +Inf bucket equal to its _count.
func checkExposition(t *testing.T, body string) map[string]string {
	t.Helper()
	type series struct {
		lastLe         float64
		lastCum        uint64
		inf, count     uint64
		hasInf, hasCnt bool
	}
	fams := map[string]string{}
	hists := map[string]*series{}
	for ln, line := range strings.Split(body, "\n") {
		if typ, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(typ)
			if len(f) != 2 {
				t.Fatalf("line %d: malformed TYPE comment %q", ln+1, line)
			}
			switch f[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown TYPE %q", ln+1, f[1])
			}
			if _, dup := fams[f[0]]; dup {
				t.Fatalf("line %d: duplicate TYPE for family %s", ln+1, f[0])
			}
			fams[f[0]] = f[1]
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("line %d: malformed sample %q", ln+1, line)
		}
		value := line[sp+1:]
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Fatalf("line %d: non-numeric value in %q", ln+1, line)
		}
		name, labels, hasLabels := strings.Cut(line[:sp], "{")
		if hasLabels && !strings.HasSuffix(labels, "}") {
			t.Fatalf("line %d: unterminated label set in %q", ln+1, line)
		}
		fam := name
		if _, ok := fams[fam]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suffix); ok && fams[base] == "histogram" {
					fam = base
				}
			}
		}
		typ, ok := fams[fam]
		if !ok {
			t.Fatalf("line %d: sample %q precedes its TYPE comment", ln+1, line)
		}
		if typ != "histogram" {
			continue
		}
		// The series key is the label set without le, which the
		// exposition renders last.
		labels = strings.TrimSuffix(labels, "}")
		switch name[len(fam):] {
		case "_bucket":
			i := strings.Index(labels, `le="`)
			if i < 0 {
				t.Fatalf("line %d: bucket without le in %q", ln+1, line)
			}
			le := strings.TrimSuffix(labels[i+len(`le="`):], `"`)
			key := fam + "{" + strings.TrimSuffix(labels[:i], ",")
			s := hists[key]
			if s == nil {
				s = &series{lastLe: -1}
				hists[key] = s
			}
			cum, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				t.Fatalf("line %d: non-integer bucket count %q", ln+1, line)
			}
			if cum < s.lastCum {
				t.Fatalf("line %d: cumulative bucket decreased in %q", ln+1, line)
			}
			s.lastCum = cum
			if le == "+Inf" {
				s.inf, s.hasInf = cum, true
				continue
			}
			b, err := strconv.ParseFloat(le, 64)
			if err != nil || b <= s.lastLe {
				t.Fatalf("line %d: le bound %q not a number above %v", ln+1, le, s.lastLe)
			}
			if !strings.HasSuffix(fam, "_seconds") && b != math.Trunc(b) {
				t.Fatalf("line %d: count-valued family with fractional le %q", ln+1, le)
			}
			s.lastLe = b
		case "_count":
			if s := hists[fam+"{"+labels]; s != nil {
				s.count, _ = strconv.ParseUint(value, 10, 64)
				s.hasCnt = true
			}
		}
	}
	if len(hists) == 0 {
		t.Fatal("scrape contains no histogram buckets")
	}
	for key, s := range hists {
		if !s.hasInf || !s.hasCnt || s.inf != s.count {
			t.Fatalf("histogram %s: +Inf bucket %d (present %v) != _count %d (present %v)",
				key, s.inf, s.hasInf, s.count, s.hasCnt)
		}
	}
	return fams
}
