// Command sortload is the open-loop load generator for sortd: many
// concurrent clients submit sort requests over the HTTP/JSON API and the
// tool reports latency percentiles under contention — p50/p95/p99 of the
// full submit-to-response path, which includes queue wait and admission
// retries, not just single-sort throughput.
//
// In open-loop mode (-rate > 0) arrivals are scheduled by a fixed-rate
// clock independent of response times, and each request's latency is
// measured from its scheduled arrival — so a saturated server shows up
// as growing latency (no coordinated omission). With -rate 0 the clients
// run closed-loop, each submitting as fast as responses return.
//
// Every response is verified: keys non-decreasing and the key checksum
// preserved. Admission rejections (429/503) honor Retry-After and are
// counted separately. -metrics-url scrapes the daemon's /metrics
// endpoint mid-load and fails unless the server families are present —
// the CI smoke lane's "scrape under load" check.
//
// The -out report is benchjson-schema JSON, so cmd/benchdiff can gate
// latency regressions between recordings; -append merges the results
// into an existing report (BENCH_PR9.json carries the kernel benchmarks
// plus these latency records).
//
// With -large-n set, roughly one request in -large-every carries that
// many keys instead of -n, exercising the daemon's over-budget spill
// degradation path; the large class is summarized and recorded
// separately (record name suffix /class=large, spilled count in Extra)
// so the standard-class record stays comparable across recordings.
//
// Example:
//
//	sortload -addr 127.0.0.1:8070 -clients 64 -duration 10s -n 4096 \
//	         -metrics-url http://127.0.0.1:9090/metrics -out load.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// sortRequest mirrors the daemon's POST /v1/sort body.
type sortRequest struct {
	Tenant   string   `json:"tenant,omitempty"`
	Algo     string   `json:"algo"`
	Priority int      `json:"priority,omitempty"`
	Width    int      `json:"width,omitempty"`
	Keys     []uint64 `json:"keys"`
}

// sortResponse is the subset of the daemon's response sortload verifies.
type sortResponse struct {
	Keys          []uint64 `json:"keys"`
	QueueNs       int64    `json:"queue_ns"`
	SortNs        int64    `json:"sort_ns"`
	Attempts      int      `json:"attempts"`
	Stage         int      `json:"stage"`
	Batched       bool     `json:"batched"`
	BatchRequests int      `json:"batch_requests"`
	Spilled       bool     `json:"spilled"`
}

// benchResult and benchReport mirror cmd/benchjson's schema so benchdiff
// can read sortload recordings.
type benchResult struct {
	Name        string             `json:"name"`
	Iters       int64              `json:"iters"`
	NsPerOp     float64            `json:"ns_op"`
	BytesPerOp  *float64           `json:"b_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// benchReport is the document form of a recording.
type benchReport struct {
	GoVersion string        `json:"go"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	Command   string        `json:"command,omitempty"`
	Results   []benchResult `json:"results"`
}

// outcome is one request's measurement.
type outcome struct {
	latency  time.Duration
	batched  bool
	rejected bool
	spilled  bool
	large    bool
	err      error
}

// serverFamilies are the metric families the mid-load scrape requires.
var serverFamilies = []string{
	"partsort_server_queue_depth",
	"partsort_server_admissions_total",
	"partsort_server_requests_total",
	"partsort_server_sort_seconds",
	"partsort_aux_bytes",
}

func main() {
	os.Exit(run())
}

// run is main behind an exit code.
func run() int {
	var (
		addr       = flag.String("addr", "127.0.0.1:8070", "sortd HTTP API address")
		clients    = flag.Int("clients", 64, "concurrent client goroutines")
		requests   = flag.Int("requests", 0, "total requests to send (0: run for -duration)")
		duration   = flag.Duration("duration", 10*time.Second, "run length when -requests is 0")
		n          = flag.Int("n", 4096, "keys per request")
		largeN     = flag.Int("large-n", 0, "keys per -large-class request (0: class disabled)")
		largeEvery = flag.Int("large-every", 16, "submit one large request per this many requests")
		width      = flag.Int("width", 64, "key width in bits (32 or 64)")
		algo       = flag.String("algo", "lsb", "algorithm: lsb, msb, or cmp")
		tenants    = flag.Int("tenants", 4, "distinct tenant ids to spread requests over")
		rate       = flag.Float64("rate", 0, "open-loop arrivals per second across all clients (0: closed loop)")
		timeout    = flag.Duration("timeout", 30*time.Second, "per-request HTTP timeout")
		wait       = flag.Duration("wait", 10*time.Second, "wait for the daemon's /healthz before starting")
		metricsURL = flag.String("metrics-url", "", "scrape this /metrics URL mid-load and require the server families")
		out        = flag.String("out", "", "write a benchjson-schema report here")
		appendOut  = flag.Bool("append", false, "merge results into an existing -out report")
		seed       = flag.Uint64("seed", 1, "workload seed")
	)
	flag.Parse()
	if *clients < 1 || *n < 1 || (*width != 32 && *width != 64) || *largeN < 0 || *largeEvery < 1 {
		fmt.Fprintln(os.Stderr, "sortload: bad flags")
		return 2
	}
	base := "http://" + *addr
	if *wait > 0 && !waitReady(base, *wait) {
		fmt.Fprintf(os.Stderr, "sortload: %s/healthz not ready after %s\n", base, *wait)
		return 1
	}

	total := *requests
	deadline := time.Time{}
	if total == 0 {
		deadline = time.Now().Add(*duration)
	}

	client := &http.Client{Timeout: *timeout, Transport: &http.Transport{
		MaxIdleConnsPerHost: *clients,
	}}

	// Arrival schedule: open-loop tickets carry their scheduled time;
	// closed-loop tickets are redeemed immediately.
	arrivals := make(chan time.Time, 4**clients)
	stop := make(chan struct{})
	var schedWG sync.WaitGroup
	if *rate > 0 {
		schedWG.Add(1)
		go func() {
			defer schedWG.Done()
			defer close(arrivals)
			interval := time.Duration(float64(time.Second) / *rate)
			next := time.Now()
			sent := 0
			for {
				if total > 0 && sent >= total {
					return
				}
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				time.Sleep(time.Until(next))
				select {
				case arrivals <- next:
					sent++
				case <-stop:
					return
				}
				next = next.Add(interval)
			}
		}()
	}

	var (
		mu      sync.Mutex
		results []outcome
		sent    atomic.Int64
	)
	scrapeErr := make(chan error, 1)
	if *metricsURL != "" {
		go func() { scrapeErr <- scrapeMidLoad(client, *metricsURL) }()
	} else {
		scrapeErr <- nil
	}

	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := *seed*0x9e3779b97f4a7c15 + uint64(id+1)
			var local []outcome
			for {
				var schedAt time.Time
				if *rate > 0 {
					t, ok := <-arrivals
					if !ok {
						break
					}
					schedAt = t
				} else {
					if total > 0 && sent.Add(1) > int64(total) {
						break
					}
					if !deadline.IsZero() && time.Now().After(deadline) {
						break
					}
					schedAt = time.Now()
				}
				reqN := *n
				large := *largeN > 0 && splitmix(&rng)%uint64(*largeEvery) == 0
				if large {
					reqN = *largeN
				}
				o := oneRequest(client, base, *algo, *width, reqN, *tenants, &rng, schedAt)
				o.large = large
				local = append(local, o)
			}
			mu.Lock()
			results = append(results, local...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	close(stop)
	schedWG.Wait()
	elapsed := time.Since(start)

	if err := <-scrapeErr; err != nil {
		fmt.Fprintln(os.Stderr, "sortload: metrics scrape:", err)
		return 1
	}
	return report(results, elapsed, *algo, *clients, *n, *largeN, *out, *appendOut)
}

// oneRequest builds, submits, verifies, and measures a single request,
// honoring Retry-After on admission rejections (the retried latency
// stays charged to the original scheduled arrival — open-loop honesty).
func oneRequest(client *http.Client, base, algo string, width, n, tenants int, rng *uint64, schedAt time.Time) outcome {
	keys := make([]uint64, n)
	var sum uint64
	mask := uint64(1)<<width - 1
	if width == 64 {
		mask = ^uint64(0)
	}
	for i := range keys {
		keys[i] = splitmix(rng) & mask
		sum += keys[i]
	}
	req := sortRequest{
		Tenant: "tenant-" + strconv.Itoa(int(splitmix(rng)%uint64(tenants))),
		Algo:   algo,
		Width:  width,
		Keys:   keys,
	}
	body, _ := json.Marshal(req)

	rejected := false
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(base+"/v1/sort", "application/json", bytes.NewReader(body))
		if err != nil {
			return outcome{latency: time.Since(schedAt), rejected: rejected, err: err}
		}
		if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			rejected = true
			if attempt >= 8 {
				return outcome{latency: time.Since(schedAt), rejected: true,
					err: fmt.Errorf("rejected %d times", attempt+1)}
			}
			sleep := 50 * time.Millisecond
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				if secs, err := strconv.Atoi(ra); err == nil && secs >= 1 {
					sleep = time.Duration(secs) * time.Second / 4
				}
			}
			time.Sleep(sleep)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			return outcome{latency: time.Since(schedAt), rejected: rejected,
				err: fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))}
		}
		var sr sortResponse
		err = json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		lat := time.Since(schedAt)
		if err != nil {
			return outcome{latency: lat, rejected: rejected, err: fmt.Errorf("decode: %w", err)}
		}
		if err := verify(sr.Keys, n, sum); err != nil {
			return outcome{latency: lat, rejected: rejected, err: err}
		}
		return outcome{latency: lat, batched: sr.Batched, rejected: rejected, spilled: sr.Spilled}
	}
}

// verify checks a sorted response: right length, non-decreasing, and the
// additive key checksum preserved.
func verify(keys []uint64, n int, sum uint64) error {
	if len(keys) != n {
		return fmt.Errorf("response has %d keys, want %d", len(keys), n)
	}
	var got uint64
	for i, k := range keys {
		if i > 0 && keys[i-1] > k {
			return fmt.Errorf("response keys not sorted at %d", i)
		}
		got += k
	}
	if got != sum {
		return fmt.Errorf("response key checksum mismatch")
	}
	return nil
}

// waitReady polls /healthz until it answers 200.
func waitReady(base string, budget time.Duration) bool {
	deadline := time.Now().Add(budget)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return true
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return false
}

// scrapeMidLoad fetches the metrics endpoint a moment into the run and
// requires every server family to be present.
func scrapeMidLoad(client *http.Client, url string) error {
	time.Sleep(300 * time.Millisecond)
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d from %s", resp.StatusCode, url)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	for _, fam := range serverFamilies {
		if !bytes.Contains(text, []byte(fam)) {
			return fmt.Errorf("family %s missing from %s", fam, url)
		}
	}
	fmt.Fprintf(os.Stderr, "sortload: mid-load scrape OK (%d bytes, %d families checked)\n",
		len(text), len(serverFamilies))
	return nil
}

// report prints the per-class latency summaries and writes the benchjson
// recording — one record for the standard class and, when -large-n is
// set, a second for the large class.
func report(results []outcome, elapsed time.Duration, algo string, clients, n, largeN int, out string, appendOut bool) int {
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "sortload: no requests completed")
		return 1
	}
	classes := []struct {
		label   string
		n       int
		results []outcome
	}{{"", n, results}}
	if largeN > 0 {
		var small, large []outcome
		for _, o := range results {
			if o.large {
				large = append(large, o)
			} else {
				small = append(small, o)
			}
		}
		classes[0].results = small
		classes = append(classes, struct {
			label   string
			n       int
			results []outcome
		}{"large", largeN, large})
	}
	appendNext := appendOut
	for _, c := range classes {
		if len(c.results) == 0 {
			fmt.Fprintf(os.Stderr, "sortload: class %q sampled no requests; nothing recorded\n", c.label)
			continue
		}
		if code := reportClass(c.results, elapsed, algo, c.label, clients, c.n, out, appendNext); code != 0 {
			return code
		}
		appendNext = true // later classes merge into the file just written
	}
	return 0
}

// reportClass summarizes one request class and appends its record.
func reportClass(results []outcome, elapsed time.Duration, algo, label string, clients, n int, out string, appendOut bool) int {
	var lats []time.Duration
	var errs, rejected, batched, spilled int
	var firstErr error
	for _, o := range results {
		if o.err != nil {
			errs++
			if firstErr == nil {
				firstErr = o.err
			}
			continue
		}
		lats = append(lats, o.latency)
		if o.batched {
			batched++
		}
		if o.rejected {
			rejected++
		}
		if o.spilled {
			spilled++
		}
	}
	tag := ""
	if label != "" {
		tag = " [" + label + "]"
	}
	if len(lats) == 0 {
		fmt.Fprintf(os.Stderr, "sortload:%s every request failed; first error: %v\n", tag, firstErr)
		return 1
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	q := func(p float64) time.Duration {
		i := int(math.Ceil(p*float64(len(lats)))) - 1
		if i < 0 {
			i = 0
		}
		return lats[i]
	}
	var total time.Duration
	for _, l := range lats {
		total += l
	}
	mean := total / time.Duration(len(lats))
	rps := float64(len(lats)) / elapsed.Seconds()

	fmt.Printf("sortload:%s %d ok, %d failed, %d retried-after-rejection, %d batched, %d spilled in %s (%.0f req/s)\n",
		tag, len(lats), errs, rejected, batched, spilled, elapsed.Round(time.Millisecond), rps)
	fmt.Printf("latency:%s p50 %s  p95 %s  p99 %s  max %s  mean %s\n",
		tag, q(0.50), q(0.95), q(0.99), lats[len(lats)-1], mean)
	if errs > 0 {
		fmt.Fprintf(os.Stderr, "sortload:%s %d requests failed; first error: %v\n", tag, errs, firstErr)
		return 1
	}

	if out != "" {
		name := fmt.Sprintf("SortdLatency/algo=%s/clients=%d/n=%d", algo, clients, n)
		if label != "" {
			name += "/class=" + label
		}
		res := benchResult{
			Name:    name,
			Iters:   int64(len(lats)),
			NsPerOp: float64(mean.Nanoseconds()),
			Extra: map[string]float64{
				"p50_ns":         float64(q(0.50).Nanoseconds()),
				"p95_ns":         float64(q(0.95).Nanoseconds()),
				"p99_ns":         float64(q(0.99).Nanoseconds()),
				"max_ns":         float64(lats[len(lats)-1].Nanoseconds()),
				"throughput_rps": rps,
				"rejected":       float64(rejected),
				"batched":        float64(batched),
				"spilled":        float64(spilled),
			},
		}
		if err := writeReport(out, appendOut, res); err != nil {
			fmt.Fprintln(os.Stderr, "sortload:", err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "sortload: recorded", name, "->", out)
	}
	return 0
}

// writeReport writes (or merges into) a benchjson-schema report.
func writeReport(path string, appendOut bool, res benchResult) error {
	rep := benchReport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Command:   "sortload",
	}
	if appendOut {
		if data, err := os.ReadFile(path); err == nil {
			if err := json.Unmarshal(data, &rep); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
		}
	}
	// Replace an existing same-name result rather than duplicating it.
	kept := rep.Results[:0]
	for _, r := range rep.Results {
		if r.Name != res.Name {
			kept = append(kept, r)
		}
	}
	rep.Results = append(kept, res)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// splitmix advances a splitmix64 state — the deterministic workload
// generator.
func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
