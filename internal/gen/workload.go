package gen

import (
	"math"
	"slices"

	"repro/internal/kv"
)

// Uniform returns n keys drawn uniformly from [0, domain). A domain of 0
// means the full range of K (the paper's "sparse" key domain).
func Uniform[K kv.Key](n int, domain uint64, seed uint64) []K {
	r := NewRNG(seed)
	keys := make([]K, n)
	if domain == 0 {
		for i := range keys {
			keys[i] = K(r.Uint64())
		}
		return keys
	}
	for i := range keys {
		keys[i] = K(r.Uint64n(domain))
	}
	return keys
}

// Dense returns n keys drawn uniformly from the dense domain [0, n), the
// paper's "dense" key domain produced by order-preserving compression.
func Dense[K kv.Key](n int, seed uint64) []K {
	return Uniform[K](n, uint64(n), seed)
}

// Permutation returns the keys 0..n-1 in random order: a dense domain where
// every value appears exactly once.
func Permutation[K kv.Key](n int, seed uint64) []K {
	r := NewRNG(seed)
	keys := make([]K, n)
	for i := range keys {
		keys[i] = K(i)
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.Uint64n(uint64(i + 1)))
		keys[i], keys[j] = keys[j], keys[i]
	}
	return keys
}

// RIDs returns the payload column 0..n-1: the record id of each tuple.
// Because the rid identifies the original position, it doubles as the
// witness for stability checks.
func RIDs[K kv.Key](n int) []K {
	vals := make([]K, n)
	for i := range vals {
		vals[i] = K(i)
	}
	return vals
}

// Sorted returns n keys in non-decreasing order over [0, domain).
func Sorted[K kv.Key](n int, domain uint64, seed uint64) []K {
	keys := Uniform[K](n, domain, seed)
	slices.Sort(keys)
	return keys
}

// Reversed returns n keys in non-increasing order over [0, domain).
func Reversed[K kv.Key](n int, domain uint64, seed uint64) []K {
	keys := Sorted[K](n, domain, seed)
	for i, j := 0, len(keys)-1; i < j; i, j = i+1, j-1 {
		keys[i], keys[j] = keys[j], keys[i]
	}
	return keys
}

// AlmostSorted returns a sorted column with a fraction of elements
// displaced to random positions — the common "nearly ordered" workload of
// incremental loads. swapFrac in [0,1] is the fraction of positions
// disturbed.
func AlmostSorted[K kv.Key](n int, domain uint64, swapFrac float64, seed uint64) []K {
	keys := Sorted[K](n, domain, seed)
	r := NewRNG(seed + 1)
	swaps := int(float64(n) * swapFrac / 2)
	for s := 0; s < swaps; s++ {
		i := int(r.Uint64n(uint64(n)))
		j := int(r.Uint64n(uint64(n)))
		keys[i], keys[j] = keys[j], keys[i]
	}
	return keys
}

// AllEqual returns n copies of key k, the degenerate skew case.
func AllEqual[K kv.Key](n int, k K) []K {
	keys := make([]K, n)
	for i := range keys {
		keys[i] = k
	}
	return keys
}

// Zipf generates n keys over [0, domain) following the Zipf distribution
// with parameter theta, as used in the paper's skew experiments
// (theta = 1.0 and 1.2). It uses the classical Zipfian generator with the
// zeta-function normalization (Gray et al.), the same construction as YCSB,
// and then scatters ranks over the domain so that popular keys are not all
// clustered at 0.
type Zipf struct {
	rng     *RNG
	domain  uint64
	theta   float64
	zetaN   float64
	alpha   float64
	eta     float64
	zeta2   float64
	scatter bool
}

// NewZipf prepares a Zipf generator over [0, domain) with parameter theta
// (> 0, != 1 handled as well as the theta→1 limit). If scatter is true the
// ranks are permuted pseudo-randomly over the domain via a Feistel-style
// hash, matching workloads where skew is not correlated with key order.
func NewZipf(domain uint64, theta float64, seed uint64, scatter bool) *Zipf {
	if domain == 0 {
		panic("gen: Zipf domain must be positive")
	}
	if theta == 1.0 {
		// The closed form has a removable singularity at theta=1; nudge.
		theta = 1.0 - 1e-9
	}
	z := &Zipf{rng: NewRNG(seed), domain: domain, theta: theta, scatter: scatter}
	z.zetaN = zetaStatic(domain, theta)
	z.zeta2 = zetaStatic(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(domain), 1-theta)) / (1 - z.zeta2/z.zetaN)
	return z
}

// Next returns the next Zipf-distributed key.
func (z *Zipf) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetaN
	var rank uint64
	switch {
	case uz < 1.0:
		rank = 0
	case uz < 1.0+math.Pow(0.5, z.theta):
		rank = 1
	default:
		rank = uint64(float64(z.domain) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.domain {
			rank = z.domain - 1
		}
	}
	if z.scatter {
		return scatterRank(rank, z.domain)
	}
	return rank
}

// Keys returns n Zipf-distributed keys over [0, domain).
func ZipfKeys[K kv.Key](n int, domain uint64, theta float64, seed uint64) []K {
	z := NewZipf(domain, theta, seed, true)
	keys := make([]K, n)
	for i := range keys {
		keys[i] = K(z.Next())
	}
	return keys
}

// scatterRank maps a rank to a pseudo-random but fixed position in
// [0, domain) with low collision probability, so that hot keys land at
// scattered key values rather than 0,1,2,...
func scatterRank(rank, domain uint64) uint64 {
	x := rank
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x % domain
}

// zetaStatic computes sum_{i=1..n} 1/i^theta. For large n it uses the
// Euler–Maclaurin integral approximation after an exact prefix, keeping
// construction O(1)-ish even for billion-value domains.
func zetaStatic(n uint64, theta float64) float64 {
	const exact = 1 << 16
	var sum float64
	m := n
	if m > exact {
		m = exact
	}
	for i := uint64(1); i <= m; i++ {
		sum += math.Pow(1.0/float64(i), theta)
	}
	if n > exact {
		// integral of x^-theta from exact to n
		if theta == 1.0 {
			sum += math.Log(float64(n)) - math.Log(float64(exact))
		} else {
			sum += (math.Pow(float64(n), 1-theta) - math.Pow(float64(exact), 1-theta)) / (1 - theta)
		}
	}
	return sum
}
