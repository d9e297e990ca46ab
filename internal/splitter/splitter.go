// Package splitter selects range-partition delimiters: uniform sampling,
// equal-depth splitter extraction, duplicate-key refinement that produces
// single-key partitions under skew (Section 4.3.2 / [13]), and the hybrid
// range-radix delimiter unions used by the sorts' first NUMA pass (Sections
// 4.2.1 and 4.2.2).
//
// Delimiter semantics follow package rangeidx: partition p holds keys k
// with delims[p-1] <= k < delims[p] (with implicit -inf / +inf sentinels).
package splitter

import (
	"slices"

	"repro/internal/gen"
	"repro/internal/kv"
	"repro/internal/obs"
)

// Sample draws size keys uniformly (with replacement) from keys, using a
// deterministic generator. An empty input yields an empty sample.
func Sample[K kv.Key](keys []K, size int, seed uint64) []K {
	if len(keys) == 0 || size <= 0 {
		return nil
	}
	return SampleInto(make([]K, size), keys, seed)
}

// SampleInto is Sample drawing len(dst) keys into dst, which it returns.
// keys must not be empty unless dst is.
func SampleInto[K kv.Key](dst, keys []K, seed uint64) []K {
	r := gen.NewRNG(seed)
	for i := range dst {
		dst[i] = keys[r.Uint64n(uint64(len(keys)))]
	}
	if o := obs.Cur(); o != nil {
		o.Counters.SplitterSamples.Add(uint64(len(dst)))
	}
	return dst
}

// EqualDepth extracts p-1 delimiters from the sample that split it into p
// parts of equal depth. The sample is sorted in place.
func EqualDepth[K kv.Key](sample []K, p int) []K {
	if p < 1 {
		panic("splitter: p must be positive")
	}
	if p == 1 || len(sample) == 0 {
		return nil
	}
	return EqualDepthInto(make([]K, p-1), sample, p)
}

// EqualDepthInto is EqualDepth for p >= 2 and a non-empty sample, writing
// the delimiters into dst[:p-1], which it returns. The sample is sorted in
// place; its sorted order is unique, so the delimiters depend only on the
// sample's multiset.
func EqualDepthInto[K kv.Key](dst, sample []K, p int) []K {
	slices.Sort(sample)
	dst = dst[:p-1]
	for i := 1; i < p; i++ {
		dst[i-1] = sample[min(i*len(sample)/p, len(sample)-1)]
	}
	return dst
}

// ForThreads samples keys and returns p-1 equal-depth delimiters; the usual
// one-call path for the sorts' first pass.
func ForThreads[K kv.Key](keys []K, p int, seed uint64) []K {
	sampleSize := 64 * p
	if sampleSize > len(keys) {
		sampleSize = len(keys)
	}
	return EqualDepth(Sample(keys, sampleSize, seed), p)
}

// RefineDuplicates applies the paper's good-splitting rule to sorted
// delimiters, in place: when a value X is sampled two or more times as a
// delimiter, the skew on X is heavy enough that keys equal to X could
// overflow an in-cache part, so X gets a partition of its own. With this
// package's half-open semantics the single-key partition [X, X+1) is
// produced by the delimiter pair (X, X+1); when X is the maximum
// representable key the open last partition [X, +inf) is already
// single-key and only X itself is kept. (The paper phrases the same
// construction as the pair (X-1, X] under its inclusive-upper-bound
// convention.) It returns the refined delimiters — strictly increasing, a
// prefix of delims — and how many duplicates were dropped; SingleKey
// reports which of their partitions need no sorting.
func RefineDuplicates[K kv.Key](delims []K) (refined []K, discarded int) {
	// A run of j-i >= 2 copies writes at most two values, so the write
	// cursor never overtakes the read cursor.
	out := delims[:0]
	for i := 0; i < len(delims); {
		x := delims[i]
		j := i + 1
		for j < len(delims) && delims[j] == x {
			j++
		}
		out = appendNew(out, x, &discarded)
		if j-i >= 2 {
			discarded += j - i - 2
			if x != kv.MaxKey[K]() {
				out = appendNew(out, x+1, &discarded)
			} else {
				discarded++ // the pair collapses; [max, +inf) is single-key
			}
		}
		i = j
	}
	return out, discarded
}

// appendNew appends v to the strictly increasing out unless it repeats
// the last value (a synthesized X+1 colliding with the next delimiter X+1),
// which it counts as discarded.
func appendNew[K kv.Key](out []K, v K, discarded *int) []K {
	if len(out) > 0 && out[len(out)-1] == v {
		*discarded++
		return out
	}
	return append(out, v)
}

// SingleKey reports that partition q of strictly increasing delimiters
// can hold only one distinct key, so it needs no sorting: its range is
// [X, X+1) (the pair RefineDuplicates makes for a heavy key X), or the
// open last range [max, +inf).
func SingleKey[K kv.Key](delims []K, q int) bool {
	switch {
	case q <= 0 || q > len(delims):
		return false
	case q == len(delims):
		return delims[q-1] == kv.MaxKey[K]()
	default:
		return delims[q]-delims[q-1] == 1
	}
}

// RadixBoundaries returns the 2^bits - 1 delimiters at the boundaries of
// the top `bits` bits of a width-bit key: i << (width-bits) for
// i = 1..2^bits-1. Unioned with sampled delimiters they pin every range
// inside one top-bits bucket (Section 4.2.2).
func RadixBoundaries[K kv.Key](bits int) []K {
	width := kv.Width[K]()
	if bits < 1 || bits >= width {
		panic("splitter: radix boundary bits out of range")
	}
	n := 1<<bits - 1
	out := make([]K, n)
	for i := 1; i <= n; i++ {
		out[i-1] = K(i) << (width - bits)
	}
	return out
}

// Union merges two sorted delimiter sets, dropping duplicates.
func Union[K kv.Key](a, b []K) []K {
	out := make([]K, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var v K
		switch {
		case j == len(b) || (i < len(a) && a[i] <= b[j]):
			v = a[i]
			i++
		default:
			v = b[j]
			j++
		}
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	return out
}
