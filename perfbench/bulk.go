package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	partsort "repro"
)

// numCPU is the bulk workloads' thread count: one per CPU.
var numCPU = runtime.NumCPU()

// bulkInput is one bulk workload's input and its working copies.
type bulkInput struct {
	keys, rids []uint64 // the generated input: uniform keys, row-id payloads
	k, v       []uint64 // the columns each sort works on
}

// newBulkInput generates bulkTuples uniform 64-bit keys from the seed.
func newBulkInput(seed uint64) *bulkInput {
	in := &bulkInput{
		keys: make([]uint64, bulkTuples), rids: partsort.RIDs[uint64](bulkTuples),
		k: make([]uint64, bulkTuples), v: make([]uint64, bulkTuples),
	}
	x := streamSeed(seed, -1)
	for i := range in.keys {
		in.keys[i] = splitmix64(&x)
	}
	return in
}

// fresh restores the working columns to the input.
func (in *bulkInput) fresh() {
	copy(in.k, in.keys)
	copy(in.v, in.rids)
}

// bulkArms are the sorts each bulk rep runs, in order, on fresh copies.
var bulkArms = []string{"lsb", "msb", "cmp", "ext"}

// bulkSorter runs the bulk arms on the working columns.
type bulkSorter struct {
	tempDir string // private spill directory of the external arm
}

func newBulkSorter(cfg config) (*bulkSorter, error) {
	s := &bulkSorter{tempDir: filepath.Join(cfg.out, "tmp", fmt.Sprintf("ext-%d", os.Getpid()))}
	if err := os.MkdirAll(s.tempDir, 0o755); err != nil {
		return nil, err
	}
	return s, nil
}

// close removes the private spill directory, which verify has already
// found empty.
func (s *bulkSorter) close() { os.RemoveAll(s.tempDir) }

// sort sorts in.k/in.v with one arm, using w as the workspace. The
// external arm gets a quarter of the input's bytes as its memory budget.
func (s *bulkSorter) sort(arm string, in *bulkInput, w *partsort.Workspace) error {
	opt := &partsort.SortOptions{Threads: numCPU, Workspace: w}
	switch arm {
	case "lsb":
		partsort.SortLSB(in.k, in.v, opt)
	case "msb":
		partsort.SortMSB(in.k, in.v, opt)
	case "cmp":
		partsort.SortCMP(in.k, in.v, opt)
	case "ext":
		opt.MaxAuxBytes = int64(len(in.k)) * 16 / 4
		opt.TempDir = s.tempDir
		if _, err := partsort.SortExternal(in.k, in.v, opt); err != nil {
			return fmt.Errorf("SortExternal: %w", err)
		}
	default:
		return fmt.Errorf("unknown arm %q", arm)
	}
	return nil
}

// timedSort sorts a fresh copy with one arm and verifies the output off
// the clock, returning the sort's duration.
func (s *bulkSorter) timedSort(arm string, in *bulkInput, w *partsort.Workspace, rep *report, tr *tracer, req int64) time.Duration {
	in.fresh()
	t0 := time.Now()
	err := s.sort(arm, in, w)
	t1 := time.Now()
	tr.add(0, 0, req, "partsort.Sort"+armCall[arm], t0, t1)
	if err == nil {
		err = s.verify(arm, in)
	}
	rep.check(err)
	return t1.Sub(t0)
}

// verify checks a finished sort against its input: sorted, the same
// multiset of pairs, stable for LSB, and no spill file left behind.
func (s *bulkSorter) verify(arm string, in *bulkInput) error {
	if !partsort.IsSorted(in.k) {
		return fmt.Errorf("%s: keys not sorted", arm)
	}
	if !partsort.SameMultiset(in.k, in.v, in.keys, in.rids) {
		return fmt.Errorf("%s: output is not a permutation of the input", arm)
	}
	if arm == "lsb" && !partsort.IsStableSorted(in.k, in.v) {
		return fmt.Errorf("lsb: equal keys lost their input order")
	}
	ents, err := os.ReadDir(s.tempDir)
	if err != nil {
		return err
	}
	if len(ents) != 0 {
		return fmt.Errorf("%s: %d entries left in the spill directory", arm, len(ents))
	}
	return nil
}

// setupRuns is how many times a run measures set-up; it reports the
// median.
const setupRuns = 3

// runBulk measures the bulk workload. Set-up, a fresh workspace plus the
// cold first sort of each arm, is measured setupRuns times; the last
// workspace then serves timed reps for cfg.seconds, each rep sorting a
// fresh copy with every arm. The end-to-end latency is the rep's summed
// sort time; each arm's throughput is printed beside it.
func runBulk(cfg config, rep *report, tr *tracer) error {
	in := newBulkInput(cfg.seed)
	s, err := newBulkSorter(cfg)
	if err != nil {
		return err
	}
	defer s.close()

	var setups []float64
	var w *partsort.Workspace
	for i := 0; i < setupRuns; i++ {
		if w != nil {
			w.Close()
		}
		var cold time.Duration
		w = partsort.NewWorkspace() // creation is cheap; the cold sorts pay its growth
		for _, arm := range bulkArms {
			cold += s.timedSort(arm, in, w, rep, nil, -1)
		}
		setups = append(setups, cold.Seconds())
	}
	defer w.Close()

	var reps []float64
	armMs := make(map[string][]float64)
	var busy time.Duration
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		var repTime time.Duration
		req := tr.reqIDs(1) // the four sorts of a rep share one request id
		for _, arm := range bulkArms {
			d := s.timedSort(arm, in, w, rep, tr, req)
			armMs[arm] = append(armMs[arm], float64(d.Nanoseconds())/1e6)
			repTime += d
		}
		reps = append(reps, float64(repTime.Nanoseconds())/1e6)
		busy += repTime
	}

	rss, err := peakRSSMiB("self")
	if err != nil {
		return err
	}
	sum := summarize(reps, 0.99)
	rep.set("setup_s", "s", median(setups), len(setups))
	rep.set("peak_rss_mb", "MiB", rss, 1)
	rep.set("p50_ms", "ms", sum.P50, sum.N)
	rep.set("p99_ms", "ms", sum.Tail, sum.N)
	rep.set("mtps", "Mtuples/s", float64(len(bulkArms)*len(reps)*bulkTuples)/busy.Seconds()/1e6, sum.N)
	fmt.Printf("bulk tuples=%d threads=%d reps=%d\n", bulkTuples, numCPU, sum.N)
	fmt.Printf("tail p99_ms %.6f ms q=%.4f n=%d\n", sum.Tail, sum.TailQ, sum.N)
	for _, arm := range bulkArms {
		fmt.Printf("arm %s_mtps %.4f Mtuples/s n=%d\n", arm, float64(bulkTuples)/median(armMs[arm])*1e3/1e6, len(armMs[arm]))
	}
	return nil
}

// armCall names the library entry point each arm calls, for span names.
var armCall = map[string]string{"lsb": "LSB", "msb": "MSB", "cmp": "CMP", "ext": "External"}
