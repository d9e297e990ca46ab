package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

func TestTailQuantileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{2000, 0.99}, {1000, 0.99}, {500, 0.98}, {100, 0.9}, {20, 0.5}, {11, 0.5}, {0, 0.5}} {
		if got := tailQuantile(tc.n, 0.99); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	for _, n := range []int{21, 100, 480, 999, 1000, 5000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		v := rankQuantile(xs, tailQuantile(n, 0.99))
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond || (n*1/100 < minBeyond && beyond != minBeyond) {
			t.Errorf("n=%d: %d samples beyond the tail, want at least %d", n, beyond, minBeyond)
		}
	}
}

func TestSummarizeCountsFailuresAsMisses(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
	}
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1)
	}
	s := summarize(xs, 0.99)
	if s.P50 != 1 || !math.IsInf(s.Tail, 1) || s.TailQ != 0.9 || s.N != 100 {
		t.Fatalf("summarize = %+v, want p50 1, tail +Inf at q 0.9 over 100", s)
	}
	if xs[0] != math.Inf(1) {
		t.Fatal("summarize reordered its input")
	}
	few := summarize([]float64{3, 1, 2, 4}, 0.99)
	if few.P50 != 2.5 || few.Tail != 2.5 {
		t.Fatalf("summarize of 4 samples = %+v, want median 2.5 as both", few)
	}
}

func flat(n int, ms float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = ms
	}
	return xs
}

func TestLadder(t *testing.T) {
	if backlogGrows(3, 5, 40) {
		t.Error("a backlog up by 2 of 40 requests is jitter")
	}
	if !backlogGrows(3, 6, 40) {
		t.Error("a backlog up by 3 of 40 requests grows")
	}
	if backlogGrows(0, 5, 100) || !backlogGrows(0, 6, 100) {
		t.Error("slack should be a twentieth of the step's requests")
	}
	slow := flat(100, 10)
	for i := 0; i < 11; i++ {
		slow[i] = 60
	}
	steps := []ladderStep{
		{Rate: 100, Lat: flat(100, 10)},
		{Rate: 105, Lat: slow},                                          // tail (p90 of 100) over the limit
		{Rate: 110, Lat: flat(100, 20)},                                 // met
		{Rate: 115, Lat: flat(100, 10), BacklogStart: 0, BacklogEnd: 9}, // backlog grows
	}
	if got := sloRate(steps, 50); got != 110 {
		t.Fatalf("sloRate = %v, want 110", got)
	}
	steps[2].Lat = slow
	if got := sloRate(steps, 50); got != 100 {
		t.Fatalf("sloRate with one step met = %v, want 100", got)
	}
	steps[0].Lat = append(flat(89, 10), flat(11, math.Inf(1))...) // failures miss the limit
	if got := sloRate(steps, 50); got != 0 {
		t.Fatalf("sloRate with no step met = %v, want 0", got)
	}
	if stepMeets(ladderStep{Rate: 1}, 50) {
		t.Fatal("a step without requests cannot meet the objective")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "wire.http", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "client.verify", Start: 20, End: 50},  // overlaps wire.http
		{ID: 4, Parent: 1, Name: "client.verify", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "server.sort", Start: 12, End: 18},
	}
	got := map[string]selfStat{}
	for _, st := range selfTimes(spans) {
		got[st.Name] = st
	}
	want := map[string]selfStat{
		"client.request": {Name: "client.request", Count: 1, TotalNs: 100, SelfNs: 100 - 40 - 10},
		"wire.http":      {Name: "wire.http", Count: 1, TotalNs: 20, SelfNs: 14},
		"client.verify":  {Name: "client.verify", Count: 2, TotalNs: 60, SelfNs: 60},
		"server.sort":    {Name: "server.sort", Count: 1, TotalNs: 6, SelfNs: 6},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
	var tr *tracer
	if id := tr.add(0, 0, 1, "x", time.Time{}, time.Time{}); id != 0 {
		t.Fatal("a nil tracer must record nothing")
	}
}

func TestParseSortResponse(t *testing.T) {
	body := []byte(`{"keys":[1,2,18446744073709551615],"vals":[2,0,1],"queue_ns":1500,"sort_ns":700,"attempts":1,"stage":0,"batched":true,"batch_requests":3}` + "\n")
	var res reqResult
	k, v, err := parseSortResponse(body, nil, nil, &res)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(k, []uint64{1, 2, math.MaxUint64}) || !slices.Equal(v, []uint64{2, 0, 1}) {
		t.Fatalf("keys %v vals %v", k, v)
	}
	if res.queueNs != 1500 || res.sortNs != 700 || !res.batched || res.batchRequests != 3 || res.attempts != 1 {
		t.Fatalf("fields %+v", res)
	}
	if _, _, err := parseSortResponse([]byte(`{"keys":[1,,2]}`), nil, nil, &res); err == nil {
		t.Fatal("malformed array accepted")
	}
}

func TestChecker(t *testing.T) {
	r := &svcRequest{keys: []uint64{30, 10, 20}, vals: true}
	for _, k := range r.keys {
		r.sum += k
	}
	var c checker
	if err := c.check(r, []uint64{10, 20, 30}, []uint64{1, 2, 0}); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}
	for name, kv := range map[string][2][]uint64{
		"unsorted":      {{20, 10, 30}, {2, 1, 0}},
		"checksum":      {{10, 20, 31}, {1, 2, 0}},
		"short":         {{10, 20}, {1, 2}},
		"duplicate row": {{10, 20, 30}, {1, 1, 0}},
		"wrong row":     {{10, 20, 30}, {2, 1, 0}},
		"row range":     {{10, 20, 30}, {1, 2, 3}},
	} {
		if err := c.check(r, kv[0], kv[1]); err == nil {
			t.Errorf("%s: bad output accepted", name)
		}
	}
}

func TestEncodeFrame(t *testing.T) {
	pool := requestPool(7, 2, 5, 32, true)
	r := pool[1]
	if r.tenant != "t1" || len(r.keys) != 5 {
		t.Fatalf("request %+v", r)
	}
	// length prefix, 6 header bytes, tenant, n, then two 4-byte columns
	if got, want := len(r.frame), 4+6+2+4+5*4*2; got != want {
		t.Fatalf("frame is %d bytes, want %d", got, want)
	}
	again := requestPool(7, 2, 5, 32, true)
	if !slices.Equal(again[1].frame, r.frame) || string(again[1].body) != string(r.body) {
		t.Fatal("the same seed must give the same requests")
	}
	for _, k := range r.keys {
		if k >= 1<<32 {
			t.Fatalf("width-32 key %d out of range", k)
		}
	}
}

// TestNamesMatchBenchmarkJSON keeps the metric and workload names the
// command prints in step with the benchmark definition.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	var wl []string
	for _, w := range workloads {
		wl = append(wl, w.name)
	}
	for _, c := range []struct {
		what      string
		json, got []string
	}{{"workloads", names(def.Workloads), wl}, {"end_to_end", names(def.EndToEnd), e2eNames}, {"per_layer", names(def.PerLayer), layerNames}} {
		if !slices.Equal(c.json, c.got) {
			t.Errorf("%s: BENCHMARK.json lists %v, the command reports %v", c.what, c.json, c.got)
		}
	}
}

// fakeClient answers every request after a fixed service time.
type fakeClient struct{ service time.Duration }

func (f fakeClient) close() {}

func (f fakeClient) do(r *svcRequest, res *reqResult) {
	res.sendAt = time.Now()
	time.Sleep(f.service)
	res.done = time.Now()
	res.verified = res.done
}

func TestRunLoadSchedulesOpenLoop(t *testing.T) {
	pool := []*svcRequest{{}, {}, {}}
	next, capacity := fixedPhases(phase{rate: 200, dur: 100 * time.Millisecond}, phase{rate: 400, dur: 100 * time.Millisecond})
	tr := newTracer()
	lr := runLoad([]client{fakeClient{time.Millisecond}, fakeClient{time.Millisecond}}, pool, next, capacity, tr, "wire.fake")
	if len(lr.res) != 20+40 || len(lr.phases) != 2 {
		t.Fatalf("%d requests over %d phases, want 60 over 2", len(lr.res), len(lr.phases))
	}
	for i, r := range lr.res {
		if r.done.Before(r.sendAt) || r.sendAt.Before(r.sched) || r.pool != i%len(pool) {
			t.Fatalf("request %d: sched %v send %v done %v pool %d", i, r.sched, r.sendAt, r.done, r.pool)
		}
	}
	if got := len(lr.latencies(1, nil)); got != 40 {
		t.Fatalf("phase 1 has %d latencies, want 40", got)
	}
	if got := len(tr.spans); got != 60*4 {
		t.Fatalf("%d spans, want 4 per request", got)
	}
	// A server slower than the schedule builds a backlog and misses.
	slow := runLoad([]client{fakeClient{60 * time.Millisecond}}, pool, next, capacity, nil, "wire.fake")
	if stepMeets(slow.step(1, nil), sloLimitMs) {
		t.Fatal("an overloaded step met the objective")
	}
}

func TestLadderStartsNearTheKnee(t *testing.T) {
	pool := []*svcRequest{{}}
	// Two connections at 10 ms per exchange sustain 200 req/s: the first
	// climb starts at ladderFromCap of that, climbs 5% a step, and stops
	// two steps past the knee; each later climb idles a step and restarts
	// at ladderRestart of the first climb's rate.
	next, capacity := ladder(20, 0.5, 20)
	lr := runLoad([]client{fakeClient{10 * time.Millisecond}, fakeClient{10 * time.Millisecond}}, pool, next, capacity, nil, "wire.fake")
	if len(lr.phases) < 3 {
		t.Fatalf("ladder ran %d phases", len(lr.phases))
	}
	if r := lr.phases[1].rate; r < 60 || r > 90 {
		t.Fatalf("ladder starts at %.1f req/s, want about 80", r)
	}
	climbs := climbRates(lr)
	if len(climbs) != ladderClimbs {
		t.Fatalf("%d climbs, want %d", len(climbs), ladderClimbs)
	}
	retries := 0
	for p := 1; p < len(lr.phases); p++ {
		ph, prev := lr.phases[p], lr.phases[p-1]
		switch {
		case ph.rate == 0 && ph.climb == prev.climb:
			retries++
			if ph.climb != 1 {
				t.Fatalf("climb %d paused to retry; only the first climb does", ph.climb)
			}
			if got, want := lr.phases[p+1].rate, lr.phases[p-2].rate; got != want {
				t.Fatalf("after the pause the ladder resumes at %.2f req/s, want the first missed rate %.2f", got, want)
			}
		case ph.rate == 0:
			if ph.climb != prev.climb+1 {
				t.Fatalf("phase %d starts climb %d after climb %d", p, ph.climb, prev.climb)
			}
			// The restart is judged while the first climb's last requests
			// may still be in flight, which can only lower its rate.
			got, hi := lr.phases[p+1].rate, ladderRestart*climbs[0]
			if got > hi+1e-9 || got < hi/(ladderFactor*ladderFactor) {
				t.Fatalf("climb %d restarts at %.2f req/s, want about %.2f", ph.climb, got, hi)
			}
		case p > 1 && prev.rate > 0:
			if want := prev.rate * ladderFactor; math.Abs(ph.rate-want) > 1e-9 {
				t.Fatalf("step %d at %.2f req/s, want %.2f", p, ph.rate, want)
			}
		}
	}
	if retries > 1 {
		t.Fatalf("the ladder paused %d times to retry, want at most once", retries)
	}
	for c, slo := range climbs {
		if slo < 100 || slo > 230 {
			t.Fatalf("climb %d: sloRate = %.1f req/s, want near the 200 req/s the connections sustain", c+1, slo)
		}
	}
	if last := lr.phases[len(lr.phases)-1].rate; last > 300 {
		t.Fatalf("ladder ran on to %.1f req/s past the knee", last)
	}
}
