// Package tune sizes the sorts' memory: the default auxiliary budget
// (membudget.go) and the external sort's spill plan. Given the input size
// and the auxiliary-memory budget, PlanSpill decides whether the sort must
// leave RAM at all and, if so, shapes the external pipeline — segment
// granularity, run-formation fanout, merge fan-in, and buffer sizes — so
// the whole pipeline's peak memory stays inside the budget the in-memory
// paths would overrun.
package tune

import (
	"math/bits"
	"runtime"
)

// Spill-plan clamps. Segments below minSegmentTuples would make the merge
// fan-in explode for no memory win; extents hold at least minLinesPerExtent
// write-combined lines so the per-extent reservation overhead stays small.
const (
	minSegmentTuples  = 1 << 10
	maxSegmentTuples  = 1 << 26
	maxBucketBits     = 8
	maxMergeWidth     = 16
	minLinesPerExtent = 16
	spillSlackBytes   = 64 << 10
)

// SpillPlan is the external sort's shape: how the one streaming
// run-formation pass fans out, how large the in-memory sorted segments
// are, and how wide the file-backed merge runs.
type SpillPlan struct {
	// Spill reports whether the input exceeds the auxiliary budget at all;
	// false means the in-memory paths fit and the external pipeline is
	// unnecessary.
	Spill bool `json:"spill"`
	// SegmentTuples is the sealed-run granularity: each segment is sorted
	// in memory, so its columns (plus the interleaved read buffer) bound
	// the delivery phase's footprint.
	SegmentTuples int `json:"segment_tuples"`
	// BucketBits is the run-formation fanout in bits: one streaming pass
	// scatters tuples into 1<<BucketBits key-range buckets whose file
	// extents are reserved on first touch (no counting pre-pass).
	BucketBits int `json:"bucket_bits"`
	// MergeWidth caps the file-backed merge fan-in; wider buckets merge in
	// rounds.
	MergeWidth int `json:"merge_width"`
	// LineTuples is the per-bucket write-combining buffer in tuples; only
	// full lines (and the final drain) reach the spill file.
	LineTuples int `json:"line_tuples"`
	// ExtentTuples is the bucket extent reservation unit in tuples.
	ExtentTuples int `json:"extent_tuples"`
	// BlockTuples is each merge iterator's prefetch block in tuples (two
	// blocks per iterator: one draining, one loading).
	BlockTuples int `json:"block_tuples"`
	// MemBytes is the planned peak auxiliary footprint of the external
	// pipeline — what an admission ledger should charge for the run.
	MemBytes int64 `json:"mem_bytes"`
}

// PlanSpill shapes the external pipeline for n tuples of keyBits-bit keys
// under an auxiliary budget of maxAux bytes (<=0: DefaultAuxBudget). The
// merge width follows the live GOMAXPROCS. The returned plan keeps
// MemBytes within the budget even when the budget is far below the input
// — only degenerate budgets (below ~512 KiB, where the buffer clamps
// dominate) are clamped up. MemBytes sums the formation slab, the
// delivery buffers, and the merge iterator blocks: the sorter checks all
// three out of the arena for the life of the run, so the phases'
// footprints coexist rather than peaking one at a time.
func PlanSpill(n, keyBits int, maxAux int64) SpillPlan {
	if maxAux <= 0 {
		maxAux = DefaultAuxBudget()
	}
	w8 := int64(keyBits / 8)
	pair := 2 * w8

	var pl SpillPlan
	// The in-memory paths budget roughly two extra columns per input
	// column (scratch ping-pong plus codes); spill once that cannot fit.
	pl.Spill = int64(n)*2*pair > maxAux

	// Segment size: the delivery phase holds one interleaved read buffer
	// (segment pairs) plus the two deinterleaved sort columns — 4·seg·w8
	// bytes — held for the whole run alongside the formation slab and the
	// merge blocks, so it gets at most a quarter of the budget.
	seg := clampInt64(maxAux/(16*w8), minSegmentTuples, maxSegmentTuples)
	if int64(n) < seg {
		seg = int64(n)
		if seg < 1 {
			seg = 1
		}
	}
	pl.SegmentTuples = int(seg)

	// Write-combining line: 8 KiB of interleaved pairs per bucket.
	line := clampInt64((8<<10)/pair, 64, 4096)

	// Fanout: target buckets of ~2 segments so the common merge fan-in
	// stays small; the extent chains absorb skew.
	buckets := int64(1)
	if n > 0 {
		buckets = ceilDiv64(int64(n), 2*seg)
	}
	bbits := bits.Len64(uint64(buckets - 1))
	pl.BucketBits = clampInt(bbits, 1, maxBucketBits)

	// Shrink the line until the formation slab (fanout × line × pair)
	// fits an eighth of the budget.
	for line > 64 && (int64(1)<<pl.BucketBits)*line*pair > maxAux/8 {
		line /= 2
	}
	pl.LineTuples = int(line)
	pl.ExtentTuples = int(clampInt64(seg/2, int64(minLinesPerExtent)*line, 1<<20))

	// Merge: W iterators × 2 prefetch blocks × block pairs ≤ half the
	// budget. The CPU count bounds useful prefetch concurrency.
	w := clampInt(runtime.GOMAXPROCS(0), 4, maxMergeWidth)
	block := clampInt64(seg/4, 1<<10, 1<<16)
	for block > 1<<10 && int64(w)*4*block*w8 > maxAux/2 {
		block /= 2
	}
	for w > 2 && int64(w)*4*block*w8 > maxAux/2 {
		w--
	}
	pl.MergeWidth = w
	pl.BlockTuples = int(block)

	// The slab, the delivery buffers, and the merge blocks are all checked
	// out of the arena for the life of the run: the peak is their sum
	// (quarter + eighth + half of the budget at most), not their max.
	formation := (int64(1) << pl.BucketBits) * line * pair
	delivery := 4 * seg * w8
	mergeMem := int64(w) * 4 * block * w8
	pl.MemBytes = formation + delivery + mergeMem + spillSlackBytes
	return pl
}

// ceilDiv64 is ceil(a/b) for positive b.
func ceilDiv64(a, b int64) int64 { return (a + b - 1) / b }

// clampInt64 clamps v into [lo, hi].
func clampInt64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// clampInt clamps v into [lo, hi].
func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
