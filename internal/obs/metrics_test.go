package obs

import (
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestBucketIndexUpperRoundTrip(t *testing.T) {
	// Exact region: one bucket per value below histSubCount.
	for v := uint64(0); v < histSubCount; v++ {
		if got := BucketIndex(v); got != int(v) {
			t.Fatalf("BucketIndex(%d) = %d, want %d", v, got, v)
		}
		if got := BucketUpper(int(v)); got != v {
			t.Fatalf("BucketUpper(%d) = %d, want %d", v, got, v)
		}
	}
	// Log-linear region: the bucket's upper bound must be >= v and within
	// the layout's relative error (2^-histSubBits).
	rng := rand.New(rand.NewSource(1))
	vals := []uint64{histSubCount, histSubCount + 1, 255, 256, 257, 1 << 20, 1<<63 - 1, 1 << 63, ^uint64(0)}
	for i := 0; i < 10000; i++ {
		vals = append(vals, rng.Uint64()>>(uint(rng.Intn(60))))
	}
	for _, v := range vals {
		i := BucketIndex(v)
		up := BucketUpper(i)
		if up < v {
			t.Fatalf("BucketUpper(BucketIndex(%d)) = %d < value", v, up)
		}
		if maxErr := v >> (histSubBits - 1); up-v > maxErr+1 {
			t.Fatalf("bucket %d for value %d has upper %d: error %d exceeds bound %d",
				i, v, up, up-v, maxErr+1)
		}
		if i < 0 || i >= HistBuckets {
			t.Fatalf("BucketIndex(%d) = %d out of range [0,%d)", v, i, HistBuckets)
		}
	}
	// Upper bounds are strictly increasing — the `le` boundaries of the
	// Prometheus rendering must be monotone.
	for i := 1; i < HistBuckets; i++ {
		if BucketUpper(i) <= BucketUpper(i-1) {
			t.Fatalf("BucketUpper not monotone at %d: %d <= %d", i, BucketUpper(i), BucketUpper(i-1))
		}
	}
}

func TestHistogramShardMergeAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_hist", "")
	// Spread observations across coordinator and workers past the shard
	// count: the snapshot must merge every shard.
	n := 0
	for w := -1; w < 2*histShards; w++ {
		for v := uint64(1); v <= 100; v++ {
			h.Observe(v*1000, w)
			n++
		}
	}
	snap := h.Snapshot()
	if snap.Count != uint64(n) {
		t.Fatalf("Count = %d, want %d", snap.Count, n)
	}
	wantSum := uint64(2*histShards+1) * 5050 * 1000
	if snap.Sum != wantSum {
		t.Fatalf("Sum = %d, want %d", snap.Sum, wantSum)
	}
	// The median of a uniform 1000..100000 sweep must land near 50000
	// within the 12.5% relative error.
	if q := snap.Quantile(0.5); q < 40000 || q > 60000 {
		t.Fatalf("p50 = %d, want ~50000", q)
	}
	if q := snap.Quantile(1.0); q < 100000 {
		t.Fatalf("p100 = %d, want >= 100000", q)
	}

	// Sub yields the delta of additional observations; Add merges back.
	h.Observe(7, 0)
	delta := h.Snapshot().Sub(snap)
	if delta.Count != 1 || delta.Sum != 7 {
		t.Fatalf("delta = {Count:%d Sum:%d}, want {1 7}", delta.Count, delta.Sum)
	}
	if merged := snap.Add(delta); merged != h.Snapshot() {
		t.Fatal("snap.Add(delta) != current snapshot")
	}
}

func TestRegistryIdempotentAndKindMismatch(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("t_total", "help", L("k", "v"))
	c2 := r.Counter("t_total", "help", L("k", "v"))
	if c1 != c2 {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	if c3 := r.Counter("t_total", "help", L("k", "other")); c3 == c1 {
		t.Fatal("distinct label sets shared one counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter name as a gauge did not panic")
		}
	}()
	r.Gauge("t_total", "help")
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_events_total", "Events.", L("event", "a")).Add(3)
	r.Gauge("t_temp", "Temp.").Set(1.5)
	h := r.Histogram("t_lat_seconds", "Latency.", L("algo", "lsb"), L("phase", "local"))
	for i := 0; i < 100; i++ {
		h.ObserveDuration(time.Duration(i)*time.Microsecond, 0)
	}
	// A count-valued family (not named _seconds) renders raw counts.
	c := r.Histogram("t_batch_requests", "Requests per batch.")
	for i := 1; i <= 100; i++ {
		c.Observe(uint64(i), 0)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE t_events_total counter",
		`t_events_total{event="a"} 3`,
		"# TYPE t_temp gauge",
		"t_temp 1.5",
		"# TYPE t_lat_seconds histogram",
		`t_lat_seconds_bucket{algo="lsb",phase="local",le="+Inf"} 100`,
		`t_lat_seconds_count{algo="lsb",phase="local"} 100`,
		`t_lat_seconds_sum{algo="lsb",phase="local"} 0.00495`,
		"# TYPE t_batch_requests histogram",
		`t_batch_requests_bucket{le="+Inf"} 100`,
		"t_batch_requests_sum 5050",
		"t_batch_requests_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
	// Cumulative bucket counts must be non-decreasing and end at Count.
	var last uint64
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "t_lat_seconds_bucket") {
			continue
		}
		v, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("cumulative bucket decreased: %q after %d", line, last)
		}
		last = v
	}
	if last != 100 {
		t.Fatalf("final cumulative bucket = %d, want 100", last)
	}
	// Count bounds are whole numbers, and the highest one covers the
	// largest observation.
	var top uint64
	for _, line := range strings.Split(out, "\n") {
		le, ok := strings.CutPrefix(line, `t_batch_requests_bucket{le="`)
		if !ok || strings.HasPrefix(le, "+Inf") {
			continue
		}
		b, err := strconv.ParseUint(le[:strings.IndexByte(le, '"')], 10, 64)
		if err != nil {
			t.Fatalf("count-valued bucket bound is not an integer: %q", line)
		}
		top = b
	}
	if top < 100 {
		t.Fatalf("highest t_batch_requests bound = %d, want >= 100", top)
	}
}

func TestMetricsSinkAggregatesSpans(t *testing.T) {
	r := NewRegistry()
	ms := NewMetricsSink(r, nil)
	for i := 0; i < 5; i++ {
		ms.Emit(Event{Name: "local", Cat: "phase", Algo: "lsb", Worker: -1, Dur: time.Millisecond})
	}
	ms.Emit(Event{Name: "pass-0", Cat: "pass", Algo: "lsb", Worker: 0, Dur: 2 * time.Millisecond, N: 1000})
	ms.Emit(Event{Name: "counters", Cat: "meta", Worker: -1}) // must not aggregate
	sum := ms.Summary()
	if st := sum["phase/local"]; st.Count != 5 || st.SumNs != 5e6 {
		t.Fatalf("phase/local = %+v, want Count 5 Sum 5e6", st)
	}
	if st := sum["pass/pass-0"]; st.Count != 1 {
		t.Fatalf("pass/pass-0 = %+v, want Count 1", st)
	}
	if _, ok := sum["meta/counters"]; ok {
		t.Fatal("meta event was aggregated")
	}
	tuples := r.Histogram(metricPrefix+"pass_tuples", "", L("algo", "lsb"), L("pass", "pass-0")).Snapshot()
	if tuples.Count != 1 || tuples.Sum != 1000 {
		t.Fatalf("pass_tuples = {Count:%d Sum:%d}, want {1 1000}", tuples.Count, tuples.Sum)
	}
}

// TestRecordPathAllocs is the zero-allocation guarantee of the enabled
// record path: histogram observes and sink emits (once a series exists)
// must not allocate.
func TestRecordPathAllocs(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_alloc_hist", "")
	if a := testing.AllocsPerRun(1000, func() { h.Observe(12345, 3) }); a != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op", a)
	}
	ms := NewMetricsSink(r, nil)
	e := Event{Name: "local", Cat: "phase", Algo: "lsb", Worker: 1, Dur: time.Millisecond}
	ms.Emit(e) // first emit registers the series (may allocate)
	if a := testing.AllocsPerRun(1000, func() { ms.Emit(e) }); a != 0 {
		t.Fatalf("MetricsSink.Emit allocates %v/op on the steady state", a)
	}
	// Disabled-session span hooks stay allocation-free too.
	if Cur() != nil {
		t.Fatal("test requires no installed session")
	}
	if a := testing.AllocsPerRun(1000, func() {
		sp := BeginIn("lsb", "local", "phase", -1)
		sp.End()
	}); a != 0 {
		t.Fatalf("disabled BeginIn/End allocates %v/op", a)
	}
}

// TestCountersExhaustive is the reflection gate: a Counters field added
// without extending CounterSnapshot, Snapshot, Sub, Map, and
// counterFields must fail here rather than silently vanish from the
// exported surfaces.
func TestCountersExhaustive(t *testing.T) {
	ct := reflect.TypeFor[Counters]()
	st := reflect.TypeFor[CounterSnapshot]()
	if ct.NumField() != st.NumField() {
		t.Fatalf("Counters has %d fields, CounterSnapshot %d", ct.NumField(), st.NumField())
	}
	if len(counterFields) != ct.NumField() {
		t.Fatalf("counterFields lists %d entries, Counters has %d fields", len(counterFields), ct.NumField())
	}
	for i := 0; i < ct.NumField(); i++ {
		if ct.Field(i).Name != st.Field(i).Name {
			t.Fatalf("field %d: Counters.%s vs CounterSnapshot.%s", i, ct.Field(i).Name, st.Field(i).Name)
		}
	}

	// Give field i the value i+1 and check every per-field surface.
	var c Counters
	cv := reflect.ValueOf(&c).Elem()
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).Addr().MethodByName("Store").Call([]reflect.Value{reflect.ValueOf(uint64(i + 1))})
	}
	snap := c.Snapshot()
	sv := reflect.ValueOf(snap)
	for i := 0; i < sv.NumField(); i++ {
		if got := sv.Field(i).Uint(); got != uint64(i+1) {
			t.Fatalf("Snapshot dropped Counters.%s: got %d, want %d", st.Field(i).Name, got, i+1)
		}
	}
	// counterFields loaders must each read their own field.
	seen := map[uint64]string{}
	for _, f := range counterFields {
		v := f.load(&c)
		if v == 0 || v > uint64(cv.NumField()) {
			t.Fatalf("counterFields[%q] loads %d, not a distinct field value", f.name, v)
		}
		if prev, dup := seen[v]; dup {
			t.Fatalf("counterFields[%q] and [%q] load the same field", f.name, prev)
		}
		seen[v] = f.name
	}
	// Map must carry every counterFields name with the field's value.
	m := snap.Map()
	if len(m) != len(counterFields) {
		t.Fatalf("Map has %d entries, want %d", len(m), len(counterFields))
	}
	for _, f := range counterFields {
		if m[f.name] != f.load(&c) {
			t.Fatalf("Map[%q] = %d, want %d", f.name, m[f.name], f.load(&c))
		}
	}
	// Sub must subtract every field: doubled - snap == snap.
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).Addr().MethodByName("Add").Call([]reflect.Value{reflect.ValueOf(uint64(i + 1))})
	}
	if delta := c.Snapshot().Sub(snap); delta != snap {
		t.Fatalf("Sub dropped a field: delta %+v != snap %+v", delta, snap)
	}
}
