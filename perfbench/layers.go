package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
	"unsafe"

	partsort "repro"
	"repro/internal/obs"
	"repro/internal/server"
)

// layerNames are the per-layer metrics every traced run reports. The
// traced run times each layer from outside, around calls into its public
// functions, on inputs derived from the workload: the workload's key
// column for the kernel layers and its request stream for the service
// layers (README.md gives the derivation per workload).
var layerNames = func() []string {
	names := []string{
		"part.histogram_gbps", "part.scatter_gbps", "part.inplace_gbps", "part.blocks_gbps",
		"rangeidx.lookup_mkeys_s",
	}
	for _, arm := range []string{"lsb", "msb", "cmp"} {
		for _, ph := range []string{"histogram", "partition", "local", "cache", "alloc"} {
			names = append(names, "sortalgo."+arm+"."+ph+"_ms")
		}
		names = append(names, "sortalgo."+arm+".mtps", "sortalgo."+arm+".passes",
			"ws."+arm+".misses", "ws."+arm+".hits", "ws."+arm+".peak_aux_mb")
	}
	return append(names,
		"extsort.mtps", "extsort.write_amp", "extsort.read_amp", "extsort.runs", "extsort.merge_rounds",
		"extsort.io_ms", "extsort.stall_ms", "extsort.overlap",
		"tune.spill_mem_mb",
		"server.submit_p50_us", "server.submit_p99_us", "server.handler_p50_us", "server.codec_us",
		"server.queue_wait_us", "server.sort_us", "server.overhead_us",
		"server.batched_ratio", "server.batch_requests_mean",
		"server.attempts_per_request", "server.rejected_ratio",
		"wire.http_us", "wire.tcp_us",
		"sortd.request_ms", "sortd.queue_wait_ms", "sortd.sort_ms",
		"client.p99_ms", "client.send_late_p99_ms", "trace.overhead_pct")
}()

// Bulk workloads replay their key column as a request stream of this
// shape in the service rungs.
const (
	bulkReqs     = 64
	bulkReqKeys  = 16384
	bulkReqRate  = 40.0
	kernelRepeat = 3 // timed passes per partitioning kernel; the median is reported
)

// runTraced is the traced run: the end-to-end measurement untraced and
// traced (their p50 gap is the tracing overhead), then one timed sweep of
// every layer. Spans are written to <out>/spans at the end.
func runTraced(cfg config, rep *report) error {
	tr := newTracer()
	half := cfg
	half.seconds = cfg.seconds / 2
	var plain, traced report
	measure := func(r *report, t *tracer) error {
		if cfg.w.proto != "" {
			return runService(half, r, t, false)
		}
		return runBulk(half, r, t)
	}
	if err := measure(&plain, nil); err != nil {
		return err
	}
	if err := measure(&traced, tr); err != nil {
		return err
	}
	for _, r := range []*report{&plain, &traced} {
		rep.attempted += r.attempted
		rep.failed += r.failed
		rep.failures = append(rep.failures, r.failures...)
	}
	tail := plain.metrics["p99_ms"]
	rep.set("client.p99_ms", tail.unit, tail.value, tail.n)
	base := plain.metrics["p50_ms"].value
	rep.set("trace.overhead_pct", "%", (traced.metrics["p50_ms"].value-base)/base*100, traced.metrics["p50_ms"].n)

	var pool []*svcRequest
	rate := cfg.w.rate
	if cfg.w.proto != "" {
		pool = requestPool(cfg.seed, svcPoolSize(cfg.w), cfg.w.keys, cfg.w.width, cfg.w.vals)
		var err error
		if cfg.w.width == 32 {
			err = kernelLayers(cfg, rep, tr, jobsOf[uint32](pool), 1)
		} else {
			err = kernelLayers(cfg, rep, tr, jobsOf[uint64](pool), 1)
		}
		if err != nil {
			return err
		}
	} else {
		in := newBulkInput(cfg.seed)
		if err := kernelLayers(cfg, rep, tr, [][]uint64{in.keys}, 0); err != nil {
			return err
		}
		pool = poolFromColumn(in.keys, bulkReqs, bulkReqKeys)
		rate = bulkReqRate
	}
	if err := serviceLayers(cfg, rep, tr, pool, rate); err != nil {
		return err
	}

	dir := filepath.Join(cfg.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.w.name, cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	printSelfTimes(tr.spans)
	fmt.Printf("spans %d written to %s\n", len(tr.spans), path)
	return nil
}

// jobsOf returns each request's keys as a sort job of key type K.
func jobsOf[K partsort.Key](pool []*svcRequest) [][]K {
	jobs := make([][]K, len(pool))
	for i, r := range pool {
		jobs[i] = make([]K, len(r.keys))
		for j, k := range r.keys {
			jobs[i][j] = K(k)
		}
	}
	return jobs
}

// timed runs f once, records a span for it, and returns its seconds.
func timed(tr *tracer, name string, f func()) float64 {
	t0 := time.Now()
	f()
	t1 := time.Now()
	tr.add(0, 0, -1, name, t0, t1)
	return t1.Sub(t0).Seconds()
}

// kernelLayers times the partitioning kernels, the range index, the
// three in-memory sorts with their workspace counters, the external sort
// and the spill planner. jobs are the workload's sort inputs: the bulk
// column, or each request's keys; the kernels run on their
// concatenation. threads 0 means one per CPU.
func kernelLayers[K partsort.Key](cfg config, rep *report, tr *tracer, jobs [][]K, threads int) error {
	if threads == 0 {
		threads = numCPU
	}
	var keys []K
	for _, j := range jobs {
		keys = append(keys, j...)
	}
	n := len(keys)
	width := 8 * int(unsafe.Sizeof(keys[0]))
	rids := partsort.RIDs[K](n)
	k, v := make([]K, n), make([]K, n)
	dk, dv := make([]K, n), make([]K, n)
	fresh := func() { copy(k, keys); copy(v, rids) }
	fn := partsort.Radix[K](uint(width-8), uint(width))
	keyBytes, pairBytes := float64(n*width/8), float64(2*n*width/8)

	kernel := func(name string, bytes float64, f func()) {
		var gbps []float64
		for i := 0; i <= kernelRepeat; i++ {
			fresh()
			s := timed(tr, name, f)
			if i > 0 { // the first pass warms caches and page tables
				gbps = append(gbps, bytes/s/1e9)
			}
		}
		rep.set(name+"_gbps", "GB/s", median(gbps), len(gbps))
	}
	var histErr error
	kernel("part.histogram", keyBytes, func() {
		h := partsort.Histogram(k, fn)
		if sum(h) != n {
			histErr = errors.New("part.Histogram: counts do not sum to the input size")
		}
	})
	rep.check(histErr)
	kernel("part.scatter", pairBytes, func() { partsort.Partition(k, v, dk, dv, fn, threads) })
	rep.check(checkPartition("part.Partition", dk, dv, keys, rids, fn))
	kernel("part.inplace", pairBytes, func() { partsort.PartitionInPlace(k, v, fn, 0) })
	rep.check(checkPartition("part.PartitionInPlace", k, v, keys, rids, fn))
	var bl *partsort.BlockLists[K]
	kernel("part.blocks", pairBytes, func() { bl = partsort.PartitionBlocks(k, v, fn, 0, threads) })
	bl.Compact(threads) // off the clock: packs the block lists so the output can be checked in place
	rep.check(checkPartition("part.PartitionBlocks", k, v, keys, rids, fn))

	// A 360-way range index over delimiters drawn from an evenly spaced
	// sample of the keys, as the comparison sort draws its splitters.
	sample := make([]K, 0, 360*100)
	for i := 0; i < cap(sample); i++ {
		sample = append(sample, keys[i*n/cap(sample)])
	}
	slices.Sort(sample)
	delims := make([]K, 359)
	for i := range delims {
		delims[i] = sample[(i+1)*len(sample)/360]
	}
	ix := partsort.NewRangeIndex(delims)
	out := make([]int32, n)
	var lookups []float64
	for i := 0; i <= kernelRepeat; i++ {
		s := timed(tr, "rangeidx.LookupBatch", func() { ix.LookupBatch(keys, out) })
		if i > 0 {
			lookups = append(lookups, float64(n)/s/1e6)
		}
	}
	rep.check(checkLookups(ix, keys, out))
	rep.set("rangeidx.lookup_mkeys_s", "Mkeys/s", median(lookups), len(lookups))

	for _, arm := range []string{"lsb", "msb", "cmp"} {
		sortLayer(rep, tr, arm, jobs, threads)
	}
	return extLayer(cfg, rep, tr, keys, rids, width)
}

// sortLayer sorts every job with one arm twice on one workspace, and
// reports the warm pass's phase times (summed over jobs), pass count,
// workspace hits and misses, and peak auxiliary memory.
func sortLayer[K partsort.Key](rep *report, tr *tracer, arm string, jobs [][]K, threads int) {
	w := partsort.NewWorkspace()
	defer w.Close()
	var total partsort.SortStats
	var peak uint64
	passes, tuples, busy := 0, 0, 0.0
	for pass := 0; pass < 2; pass++ {
		for _, job := range jobs {
			k := append([]K(nil), job...)
			v := partsort.RIDs[K](len(k))
			var st partsort.SortStats
			opt := &partsort.SortOptions{Threads: threads, Workspace: w, Stats: &st}
			secs := timed(tr, "sortalgo."+arm, func() {
				switch arm {
				case "lsb":
					partsort.SortLSB(k, v, opt)
				case "msb":
					partsort.SortMSB(k, v, opt)
				default:
					partsort.SortCMP(k, v, opt)
				}
			})
			var err error
			if !partsort.IsSorted(k) {
				err = fmt.Errorf("sortalgo.%s: keys not sorted", arm)
			} else {
				err = sameMultiset("sortalgo."+arm, k, v, job, partsort.RIDs[K](len(k)))
			}
			rep.check(err)
			if pass == 1 {
				tuples += len(k)
				busy += secs
				total.Histogram += st.Histogram
				total.Partition += st.Partition + st.Shuffle
				total.LocalRadix += st.LocalRadix
				total.CacheSort += st.CacheSort
				total.Alloc += st.Alloc
				total.WorkspaceHits += st.WorkspaceHits
				total.WorkspaceMisses += st.WorkspaceMisses
				passes += st.Passes
				peak = max(peak, st.PeakAuxBytes)
			}
		}
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	p, n := "sortalgo."+arm+".", len(jobs)
	rep.set(p+"histogram_ms", "ms", ms(total.Histogram), n)
	rep.set(p+"partition_ms", "ms", ms(total.Partition), n)
	rep.set(p+"local_ms", "ms", ms(total.LocalRadix), n)
	rep.set(p+"cache_ms", "ms", ms(total.CacheSort), n)
	rep.set(p+"alloc_ms", "ms", ms(total.Alloc), n)
	rep.set(p+"mtps", "Mtuples/s", float64(tuples)/busy/1e6, n)
	rep.set(p+"passes", "count", float64(passes)/float64(n), n)
	rep.set("ws."+arm+".misses", "count", float64(total.WorkspaceMisses), n)
	rep.set("ws."+arm+".hits", "count", float64(total.WorkspaceHits), n)
	rep.set("ws."+arm+".peak_aux_mb", "MiB", float64(peak)/(1<<20), n)
}

// extLayer runs the external sort on the kernel input with a quarter of
// its bytes as the memory budget, once cold and once measured, and
// reports the measured run's spill traffic and merge pipeline.
func extLayer[K partsort.Key](cfg config, rep *report, tr *tracer, keys, rids []K, width int) error {
	dir := filepath.Join(cfg.out, "tmp", fmt.Sprintf("ext-layer-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	n := len(keys)
	inBytes := int64(n) * int64(2*width/8)
	budget := inBytes / 4
	var st partsort.ExternalStats
	var secs float64
	w := partsort.NewWorkspace()
	defer w.Close()
	for i := 0; i < 2; i++ {
		k, v := append([]K(nil), keys...), append([]K(nil), rids...)
		var err error
		secs = timed(tr, "extsort.SortExternal", func() {
			st, err = partsort.SortExternal(k, v, &partsort.SortOptions{
				Threads: numCPU, Workspace: w, MaxAuxBytes: budget, TempDir: dir})
		})
		if err == nil && !partsort.IsSorted(k) {
			err = errors.New("extsort: keys not sorted")
		}
		if err == nil {
			err = sameMultiset("extsort", k, v, keys, rids)
		}
		if err == nil {
			if ents, _ := os.ReadDir(dir); len(ents) != 0 {
				err = fmt.Errorf("extsort: %d entries left in the spill directory", len(ents))
			}
		}
		rep.check(err)
	}
	var plan partsort.SpillPlan
	timed(tr, "tune.PlanSpill", func() { plan = partsort.PlanSpill(n, width, budget) })
	rep.set("extsort.mtps", "Mtuples/s", float64(n)/secs/1e6, 1)
	rep.set("extsort.write_amp", "ratio", float64(st.SpillBytes)/float64(inBytes), 1)
	rep.set("extsort.read_amp", "ratio", float64(st.ReadBytes)/float64(inBytes), 1)
	rep.set("extsort.runs", "count", float64(st.RunsWritten), 1)
	rep.set("extsort.merge_rounds", "count", float64(st.MergeRounds), 1)
	rep.set("extsort.io_ms", "ms", float64(st.IONs)/1e6, 1)
	rep.set("extsort.stall_ms", "ms", float64(st.StallNs)/1e6, 1)
	rep.set("extsort.overlap", "ratio", st.OverlapRatio(), 1)
	rep.set("tune.spill_mem_mb", "MiB", float64(plan.MemBytes)/(1<<20), 1)
	fmt.Printf("extsort tuples=%d budget=%d spilled=%v\n", n, budget, st.Spilled)
	return nil
}

// serviceLayers replays the request stream at rate through each rung of
// the service stack, two concurrent clients per rung: Submit in process,
// the HTTP handler in process, then sortd over HTTP and over TCP.
func serviceLayers(cfg config, rep *report, tr *tracer, pool []*svcRequest, rate float64) error {
	next, capacity := fixedPhases(phase{rate: rate, dur: time.Duration(cfg.seconds / 4 * float64(time.Second))})
	var late []float64
	replay := func(clients []client, name string) *loadRun {
		lr := runLoad(clients, pool, next, capacity, tr, name)
		for i := range lr.res {
			rep.check(lr.res[i].err)
		}
		late = append(late, lr.lateness()...)
		return lr
	}

	// Workers as sortd sets them by default (GOMAXPROCS there is nproc).
	srv := server.New(server.Config{Workers: numCPU, Registry: obs.NewRegistry()})
	sub := replay([]client{&submitClient{srv: srv}, &submitClient{srv: srv}}, "server.Submit")
	hnd := replay([]client{&handlerClient{h: srv.Handler()}, &handlerClient{h: srv.Handler()}}, "server.Handler")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err := srv.Drain(ctx)
	cancel()
	if err == nil && (srv.PendingAuxBytes() != 0 || srv.AuxBytes() != 0) {
		err = fmt.Errorf("in-process server drained with ledger %d B, workspace %d B", srv.PendingAuxBytes(), srv.AuxBytes())
	}
	rep.check(err)

	p, err := startSortd(cfg.sortd, true)
	if err != nil {
		return err
	}
	if err := p.waitHealthy(); err != nil {
		p.stop()
		return err
	}
	before, err := scrape(p.metricsURL)
	if err != nil {
		p.stop()
		return err
	}
	var lrs [2]*loadRun
	for i, proto := range []string{"http", "tcp"} {
		var clients []client
		for c := 0; c < conns; c++ {
			cl, err := p.dial(proto)
			if err != nil {
				p.stop()
				return err
			}
			clients = append(clients, cl)
		}
		lrs[i] = replay(clients, "wire."+proto)
		for _, c := range clients {
			c.close()
		}
	}
	after, err := scrape(p.metricsURL)
	rep.check(p.stop())
	if err != nil {
		return err
	}

	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	exchange := func(lr *loadRun) []float64 {
		out := make([]float64, len(lr.res))
		for i, r := range lr.res {
			out[i] = us(r.done.Sub(r.sendAt))
		}
		return out
	}
	subLat, hndLat := exchange(sub), exchange(hnd)
	subSum, hndSum := summarize(subLat, 0.99), summarize(hndLat, 0.99)
	var queue, sortT, batchReqs []float64
	batched, ok, attempts, rejected := 0, 0, 0, 0
	for _, r := range sub.res {
		queue = append(queue, float64(r.queueNs)/1e3)
		sortT = append(sortT, float64(r.sortNs)/1e3)
		batchReqs = append(batchReqs, float64(max(1, r.batchRequests)))
		if r.batched {
			batched++
		}
		attempts += max(1, r.attempts)
		if r.err == nil {
			ok++
		}
		var adm *server.AdmissionError
		var big *server.TooLargeError
		var over *server.OverBudgetError
		if errors.As(r.err, &adm) || errors.As(r.err, &big) || errors.As(r.err, &over) {
			rejected++
		}
	}
	n := len(sub.res)
	rep.set("server.submit_p50_us", "us", subSum.P50, n)
	rep.set("server.submit_p99_us", "us", subSum.Tail, n)
	rep.set("server.handler_p50_us", "us", hndSum.P50, len(hnd.res))
	rep.set("server.codec_us", "us", mean(hndLat)-mean(subLat), len(hnd.res))
	rep.set("server.queue_wait_us", "us", mean(queue), n)
	rep.set("server.sort_us", "us", mean(sortT), n)
	rep.set("server.overhead_us", "us", mean(subLat)-mean(queue)-mean(sortT), n)
	rep.set("server.batched_ratio", "ratio", float64(batched)/float64(n), n)
	rep.set("server.batch_requests_mean", "count", mean(batchReqs), n)
	rep.set("server.attempts_per_request", "ratio", float64(ok)/float64(attempts), n)
	rep.set("server.rejected_ratio", "ratio", float64(rejected)/float64(n), n)
	rep.set("wire.http_us", "us", mean(exchange(lrs[0]))-mean(hndLat), len(lrs[0].res))
	rep.set("wire.tcp_us", "us", mean(exchange(lrs[1]))-mean(subLat), len(lrs[1].res))
	for _, m := range []struct{ name, family string }{
		{"sortd.request_ms", "partsort_server_request_seconds"},
		{"sortd.queue_wait_ms", "partsort_server_queue_wait_seconds"},
		{"sortd.sort_ms", "partsort_server_sort_seconds"},
	} {
		dSum := after[m.family+"_sum"] - before[m.family+"_sum"]
		dCount := after[m.family+"_count"] - before[m.family+"_count"]
		if dCount <= 0 {
			return fmt.Errorf("sortd /metrics: %s_count did not advance", m.family)
		}
		rep.set(m.name, "ms", dSum/dCount*1e3, int(dCount))
	}
	lateSum := summarize(late, 0.99)
	rep.set("client.send_late_p99_ms", "ms", lateSum.Tail, lateSum.N)
	fmt.Printf("service rungs rate=%g requests=%d keys=%d width=%d\n", rate, n, len(pool[0].keys), pool[0].width)
	return nil
}

// scrape reads sortd's Prometheus exposition at url and sums every sample of
// each series name across its label sets.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, fmt.Errorf("scrape sortd metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape sortd metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// sameMultiset reports an error unless (k, v) holds the pairs of (ik, iv).
func sameMultiset[K partsort.Key](what string, k, v, ik, iv []K) error {
	if !partsort.SameMultiset(k, v, ik, iv) {
		return fmt.Errorf("%s: output is not a permutation of the input", what)
	}
	return nil
}

// checkPartition verifies a partitioned output: a permutation of the
// input whose partition ids never decrease.
func checkPartition[K partsort.Key](what string, k, v, ik, iv []K, fn partsort.PartitionFunc[K]) error {
	for i := 1; i < len(k); i++ {
		if fn.Partition(k[i-1]) > fn.Partition(k[i]) {
			return fmt.Errorf("%s: partition ids decrease at %d", what, i)
		}
	}
	return sameMultiset(what, k, v, ik, iv)
}

// checkLookups spot-checks batched range-index lookups against Lookup.
func checkLookups[K partsort.Key](ix *partsort.RangeIndex[K], keys []K, out []int32) error {
	for i := 0; i < len(keys); i += 997 {
		if int(out[i]) != ix.Lookup(keys[i]) {
			return fmt.Errorf("rangeidx.LookupBatch: key %d maps to %d, Lookup says %d", i, out[i], ix.Lookup(keys[i]))
		}
	}
	return nil
}
