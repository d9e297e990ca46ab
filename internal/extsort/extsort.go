// Package extsort breaks the in-memory ceiling: it sorts key/payload
// columns whose working set exceeds the auxiliary-memory budget by
// spilling to disk and merging back, in three phases.
//
//  1. Run formation (one streaming pass, counting-free): tuples are
//     classified by their top radix digit into key-range buckets whose
//     file extents are reserved on first touch — the Wassenberg & Sanders
//     bucket-reservation trick translated from virtual memory to file
//     space, so no separate histogram pass precedes the scatter. Each
//     bucket owns a small write-combining line buffer; only full lines
//     (and the final drain) reach the spill file.
//  2. Delivery: buckets are read back in key order. A bucket that fits
//     one segment is deinterleaved straight into its output range and
//     sorted in place by the in-memory MSB kernel; a larger bucket is cut
//     into segment-sized chunks, each sorted in memory and sealed as a
//     checksummed sorted run.
//  3. Merge: a bucket's sealed segments are merged W at a time by the
//     file-backed generalization of the CMP lane merge — double-buffered
//     segment iterators whose prefetch goroutines overlap disk reads with
//     merge compute.
//
// Every buffer comes from the workspace arena (steady-state buffer
// acquisition allocates nothing), panics unwind through a restore handler
// that rebuilds the input permutation from the phase-1 extents, and every
// temp file is registered on the fault package's resource ledger so a
// containment that leaks one fails tests.
package extsort

import (
	"fmt"
	"os"
	"unsafe"

	"repro/internal/hard"
	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/sortalgo"
	"repro/internal/ws"
)

// TempResource is the fault-ledger kind under which live spill files are
// accounted; harnesses assert it drains to zero after containment.
const TempResource = "extsort/tempfile"

// Options shapes one external sort. The caller (the public SortExternal
// entry points) fills every field from tune.PlanSpill plus explicit
// SortOptions overrides; extsort itself applies no defaults beyond
// clamping obvious zeroes.
type Options struct {
	// TempDir is where the spill directory is created ("": os.TempDir()).
	TempDir string
	// SegmentTuples is the sealed-run granularity (and the in-memory
	// shortcut threshold: inputs at most this large never touch disk).
	SegmentTuples int
	// BucketBits is the run-formation fanout in bits (fanout 1<<bits).
	BucketBits int
	// MergeWidth caps merge fan-in; wider buckets merge in rounds.
	MergeWidth int
	// LineTuples is the per-bucket write-combining buffer in tuples.
	LineTuples int
	// BlockTuples is the merge iterators' prefetch block in tuples.
	BlockTuples int
	// MaxSpillBytes caps total reserved spill-file bytes (0: unlimited).
	MaxSpillBytes int64
	// Threads configures the in-memory chunk sorts.
	Threads int
}

// Stats reports what one external sort did; the public entry points and
// benchmarks read it, and obs mirrors it process-wide.
type Stats struct {
	// Spilled is false when the input fit one segment and never left RAM.
	Spilled bool
	// FormationBytes/FormationWrites are the run-formation pass's spill
	// traffic: exactly one interleaved copy of the input, written once —
	// the single-streaming-pass witness tests assert on.
	FormationBytes  int64
	FormationWrites int64
	// RunsWritten counts sealed segments (delivery chunks + merge rounds).
	RunsWritten int64
	// SpillBytes/ReadBytes are total spill-file traffic in bytes.
	SpillBytes int64
	ReadBytes  int64
	// Buckets is the number of non-empty formation buckets; MaxFanIn the
	// widest single merge; MergeRounds the number of merge invocations.
	Buckets     int
	MaxFanIn    int
	MergeRounds int64
	// IONs is prefetcher time spent in reads; StallNs is consumer time
	// spent blocked waiting for one. On a multi-core host their gap is
	// wall-clock I/O hidden behind compute; on a single core every
	// page-cache read consumes the CPU during the consumer's wait, so the
	// block counts below are the scheduling-independent overlap measure.
	IONs    int64
	StallNs int64
	// BlocksReady counts prefetched blocks that were already waiting when
	// the merge asked for them (their read completed entirely behind
	// compute); BlocksStalled counts the ones the merge had to wait for —
	// pipeline fills and prefetch misses.
	BlocksReady   int64
	BlocksStalled int64
}

// OverlapRatio is the prefetch-effectiveness of the merge pipeline: the
// fraction of block handoffs whose read was finished before the merge
// needed the data, i.e. I/O fully overlapped with compute. 0 when no
// merge ran.
func (st Stats) OverlapRatio() float64 {
	total := st.BlocksReady + st.BlocksStalled
	if total <= 0 {
		return 0
	}
	return float64(st.BlocksReady) / float64(total)
}

// IOError is a spill-path failure: the operation, the file involved, and
// the underlying error. The public surface wraps it as *SpillError.
type IOError struct {
	Op   string
	Path string
	Err  error
}

// Error implements error.
func (e *IOError) Error() string {
	return fmt.Sprintf("extsort: %s %s: %v", e.Op, e.Path, e.Err)
}

// Unwrap exposes the underlying error.
func (e *IOError) Unwrap() error { return e.Err }

// ErrDiskBudget is wrapped by the IOError returned when reserving spill
// space would cross Options.MaxSpillBytes.
var ErrDiskBudget = fmt.Errorf("disk spill budget exceeded")

// ErrCorrupt is wrapped by the IOError returned when a sealed segment
// read back from disk fails its count or checksum seal.
var ErrCorrupt = fmt.Errorf("segment failed its seal check")

// Run sorts keys/vals (same length) through the external pipeline under
// the given control and workspace (both may be nil). It returns the run's
// stats and the first I/O error; injected faults, budget overruns, and
// cancellation unwind as panics for the caller's containment, after the
// deferred handler here restored the permutation from the phase-1 extents
// and removed the temp files.
func Run[K kv.Key](ctl *hard.Ctl, keys, vals []K, w *ws.Workspace, opt Options) (Stats, error) {
	n := len(keys)
	if opt.SegmentTuples < 1 {
		opt.SegmentTuples = 1 << 20
	}
	if n <= opt.SegmentTuples {
		// The input fits one segment: sort in memory, no spill.
		if n > 1 {
			sortChunk(ctl, keys, vals, w, opt)
		}
		return Stats{Spilled: false}, nil
	}
	opt = opt.clamped()

	s := getSorter[K](w, n, opt)
	var err error
	defer func() {
		r := recover()
		if r != nil || err != nil {
			// Once formation completed, parts of keys/vals have been
			// overwritten by delivery; every tuple is still on disk in the
			// bucket extents, so read them all back. Before that point the
			// formation pass only read the input, which is still intact.
			if s.phase >= phaseDeliver {
				if rerr := s.restore(keys, vals); rerr != nil && err != nil {
					err = fmt.Errorf("%w (and permutation restore failed: %v)", err, rerr)
				}
			}
		}
		s.cleanup()
		putSorter(w, s)
		if r != nil {
			panic(hard.NewPanic(r))
		}
	}()

	if err = s.open(); err != nil {
		return s.stats, err
	}
	if err = s.formRuns(ctl, keys, vals); err != nil {
		return s.stats, err
	}
	s.phase = phaseDeliver
	if err = s.deliver(ctl, keys, vals); err != nil {
		return s.stats, err
	}
	s.stats.Spilled = true
	obs.AddExtIO(s.stats.IONs, s.stats.StallNs, s.stats.BlocksReady, s.stats.BlocksStalled)
	return s.stats, nil
}

// clamped sanitizes the option fields extsort derives sizes from.
func (o Options) clamped() Options {
	if o.BucketBits < 1 {
		o.BucketBits = 1
	}
	if o.BucketBits > 16 {
		o.BucketBits = 16
	}
	if o.LineTuples < 16 {
		o.LineTuples = 16
	}
	if o.BlockTuples < 256 {
		o.BlockTuples = 256
	}
	if o.MergeWidth < 2 {
		o.MergeWidth = 2
	}
	if o.MergeWidth > maxMergeWidth {
		o.MergeWidth = maxMergeWidth
	}
	if o.Threads < 1 {
		o.Threads = 1
	}
	return o
}

// maxMergeWidth bounds merge fan-in (and so prefetch goroutines and
// iterator buffers) per merge invocation.
const maxMergeWidth = 16

// Pipeline phases, recorded so the unwind handler knows whether the
// output arrays have been partially overwritten.
const (
	phaseForm = iota + 1
	phaseDeliver
)

// sortChunk runs the in-memory MSB kernel over one chunk with the
// external sort's thread/workspace/control configuration.
func sortChunk[K kv.Key](ctl *hard.Ctl, keys, vals []K, w *ws.Workspace, opt Options) {
	sortalgo.MSB(keys, vals, sortalgo.Options{
		Threads:   opt.Threads,
		Workspace: w,
		Ctl:       ctl,
	})
}

// asBytes retypes a key slice as its backing bytes (keys are pointer-free
// fixed-width integers). Spill files hold native-endian interleaved
// pairs; they are private to the writing process and never outlive it.
func asBytes[K kv.Key](s []K) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// deinterleave splits pairs (k0 v0 k1 v1 ...) into columns.
func deinterleave[K kv.Key](pairs, outK, outV []K) {
	for i := range outK {
		outK[i] = pairs[2*i]
		outV[i] = pairs[2*i+1]
	}
}

// interleave packs columns into pairs.
func interleave[K kv.Key](pairs, ks, vs []K) {
	for i := range ks {
		pairs[2*i] = ks[i]
		pairs[2*i+1] = vs[i]
	}
}

// ioErr builds an *IOError, keeping call sites one line. A nil f (file
// never opened) degrades to the directory path.
func ioErr(op string, f *os.File, err error) error {
	path := "?"
	if f != nil {
		path = f.Name()
	}
	return &IOError{Op: op, Path: path, Err: err}
}
