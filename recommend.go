package partsort

import (
	"context"
	"math/bits"

	"repro/internal/kv"
)

// Algorithm identifies one of the three sorting algorithms.
type Algorithm int

// The sorting algorithms of Section 4.
const (
	LSB Algorithm = iota // stable least-significant-bit radix-sort
	MSB                  // in-place most-significant-bit radix-sort
	CMP                  // range-partitioning comparison sort
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case LSB:
		return "LSB"
	case MSB:
		return "MSB"
	case CMP:
		return "CMP"
	}
	return "unknown"
}

// Workload describes a sorting problem for Recommend. Recommend
// validates it: out-of-range fields raise an *ArgError (see the
// accepted range on each field).
type Workload struct {
	// N is the tuple count; must be at least 1 (an empty problem has no
	// recommendation — Sort handles empty inputs itself).
	N int
	// DomainBits is the key domain width logD (use kv width for sparse
	// domains, or the dictionary code width for compressed columns).
	// Must be in [0, 64]; 0 means "unknown": the full key width is
	// assumed.
	DomainBits int
	// KeyBits is the key type width. Must be 32, 64, or 0 ("unknown":
	// 64 is assumed when DomainBits is also unknown).
	KeyBits int
	// SpaceTight: no linear auxiliary array can be afforded.
	SpaceTight bool
	// HeavySkew: the distribution has keys heavy enough to defeat
	// radix-bucket balancing (Zipf theta >= ~1.2 or known hot keys).
	HeavySkew bool
	// NeedStable: payloads of equal keys must keep input order.
	NeedStable bool
}

// Recommend applies the paper's conclusion (Section 6) as a decision
// procedure: LSB radix-sort on dense (compressed) key domains; MSB
// radix-sort on sparse domains or when auxiliary space cannot be spared;
// comparison sort when load balancing under heavy skew matters most.
// Stability forces LSB, the only stable algorithm of the three.
//
// The workload must be well-formed (see the Workload field ranges):
// N >= 1, KeyBits one of 0/32/64, DomainBits in [0, 64]. Anything else
// panics with an *ArgError naming the offending field — previously such
// workloads were silently accepted and produced a recommendation based
// on garbage.
func Recommend(w Workload) Algorithm {
	mustValid(validateWorkload("Recommend", w))
	if w.NeedStable {
		return LSB
	}
	if w.SpaceTight {
		return MSB
	}
	if w.HeavySkew {
		return CMP
	}
	domain := w.DomainBits
	if domain <= 0 {
		domain = w.KeyBits
	}
	if domain <= 0 {
		domain = 64
	}
	// Dense vs sparse: LSB does ceil(logD / bits) passes, MSB ~ceil(logN /
	// bits). When the domain is not much wider than the data, LSB's
	// simpler passes win; when the domain is far wider, MSB stops early.
	logN := bits.Len(uint(max(w.N, 2) - 1))
	if domain <= logN+8 {
		return LSB
	}
	return MSB
}

// Sort runs the recommended algorithm for the workload it derives from the
// input (domain detected by scanning) and the given requirements. An empty
// input is trivially sorted: Sort returns LSB without consulting
// Recommend. The sort itself runs through SortCtx; like the Sort*
// wrappers, Sort panics with the typed error SortCtx returns.
func Sort[K Key](keys, vals []K, needStable, spaceTight bool, opt *SortOptions) Algorithm {
	mustValid(validatePairs("Sort", "keys", "vals", keys, vals))
	mustValid(validateOptions("Sort", opt))
	if len(keys) == 0 {
		return LSB
	}
	a := Recommend(Workload{
		N:          len(keys),
		DomainBits: kv.DomainBits(keys),
		KeyBits:    kv.Width[K](),
		SpaceTight: spaceTight,
		NeedStable: needStable,
	})
	mustSort(SortCtx(context.Background(), a, keys, vals, opt))
	return a
}
