// Percentiles: range partitioning as an analytics operator. Computing
// percentile buckets of a measurement column needs a range function — the
// operation the paper makes fast with its cache-resident index. This
// example buckets request latencies into 100 percentile bands and reports
// p50/p90/p99/p999 without fully sorting the column: one sampling pass,
// one index-driven histogram pass, and a partial refinement of the tail
// bucket.
package main

import (
	"fmt"
	"slices"
	"time"

	partsort "repro"
	"repro/internal/gen"
)

const n = 1 << 22

func main() {
	// Synthetic latencies: log-normal-ish via the product of uniforms,
	// with a Zipf-heavy tail.
	lat := make([]uint64, n)
	rng := gen.NewRNG(7)
	for i := range lat {
		base := rng.Uint64n(1000) + 1
		tail := uint64(1)
		if rng.Uint64n(100) == 0 {
			tail = rng.Uint64n(500) + 1 // the slow 1%
		}
		lat[i] = base * tail
	}

	t0 := time.Now()
	// Delimiters: equal-depth percentile boundaries from a sample.
	sample := make([]uint64, 1<<16)
	for i := range sample {
		sample[i] = lat[rng.Uint64n(n)]
	}
	slices.Sort(sample)
	delims := make([]uint64, 99)
	for i := range delims {
		delims[i] = sample[(i+1)*len(sample)/100]
	}
	ix := partsort.NewRangeIndex(delims)

	// One index pass: percentile histogram.
	codes := make([]int32, n)
	ix.LookupBatch(lat, codes)
	hist := make([]int, ix.Fanout())
	for _, c := range codes {
		hist[c]++
	}

	// Percentile estimates: delimiters ARE the percentile boundaries.
	fmt.Printf("bucketed %d latencies into %d percentile bands in %.1f ms\n",
		n, ix.Fanout(), float64(time.Since(t0).Microseconds())/1000)
	fmt.Printf("p50 ≈ %d   p90 ≈ %d   p99 ≈ %d\n", delims[49], delims[89], delims[98])

	// Refine the tail: sort only the top bucket to get exact p99.9 — the
	// selective-recursion trick the comparison sort uses for single-key
	// partitions, applied to analytics.
	var tail []uint64
	for i, c := range codes {
		if int(c) == ix.Fanout()-1 {
			tail = append(tail, lat[i])
		}
	}
	rids := partsort.RIDs[uint64](len(tail))
	partsort.SortMSB(tail, rids, nil)
	idx999 := len(tail) - n/1000 // rank of p99.9 within the tail bucket
	fmt.Printf("p99.9 = %d (exact, from sorting only the top bucket: %d of %d values)\n",
		tail[idx999], len(tail), n)

	// Sanity: full sort agrees.
	full := append([]uint64(nil), lat...)
	fr := partsort.RIDs[uint64](n)
	partsort.SortLSB(full, fr, &partsort.SortOptions{Threads: 4})
	exact := full[n-n/1000]
	if tail[idx999] != exact {
		panic(fmt.Sprintf("p99.9 mismatch: bucket path %d, full sort %d", tail[idx999], exact))
	}
	fmt.Println("verified against a full sort")
}
