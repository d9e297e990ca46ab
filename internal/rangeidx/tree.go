package rangeidx

import (
	"fmt"
	"math/bits"

	"repro/internal/kv"
)

// Tree is the paper's cache-resident range index (Section 3.5.2): a
// pointerless static search tree whose levels are flat sorted arrays, with
// an independently chosen fanout per level (of the SIMD-friendly form
// k*W + 1), no delimiter repeated across levels, and no update support.
// Each level access is one node search — a handful of lane-parallel
// comparisons — so computing a range function costs `levels` cache accesses
// instead of log2(P) dependent loads.
//
// The zero Tree is ready for Reset, which rebuilds a tree in place over new
// delimiters: a sort that builds one tree per recursion node reuses one
// Tree's storage for all of them.
type Tree[K kv.Key] struct {
	levels  [][]K // views of store, one per level
	store   []K   // every level's delimiters, level-major
	fanouts []int // never mutated: may be a shared menu entry
	p       int   // actual fanout: len(delims)+1
	cap     int   // capacity: product of fanouts
}

// BuildTree constructs the index over sorted delimiters with the given
// per-level fanouts. The product of fanouts minus one must be at least
// len(delims); unused capacity is padded with the maximum key so padding
// partitions stay empty.
func BuildTree[K kv.Key](delims []K, fanouts []int) *Tree[K] {
	t := new(Tree[K])
	t.build(delims, append([]int(nil), fanouts...))
	return t
}

// Reset rebuilds t over sorted delimiters with the best menu configuration,
// as NewTreeFor would, reusing t's storage.
func (t *Tree[K]) Reset(delims []K) {
	t.build(delims, chooseFanouts(len(delims)+1))
}

// build fills t from delims under fanouts, which t keeps.
func (t *Tree[K]) build(delims []K, fanouts []int) {
	if len(fanouts) == 0 {
		panic("rangeidx: tree needs at least one level")
	}
	capacity := 1
	for _, f := range fanouts {
		if f < 2 {
			panic(fmt.Sprintf("rangeidx: level fanout %d < 2", f))
		}
		capacity *= f
	}
	if len(delims)+1 > capacity {
		panic(fmt.Sprintf("rangeidx: %d delimiters exceed tree capacity %d", len(delims), capacity-1))
	}
	for i := 1; i < len(delims); i++ {
		if delims[i-1] > delims[i] {
			panic("rangeidx: delimiters not sorted")
		}
	}
	t.fanouts, t.p, t.cap = fanouts, len(delims)+1, capacity
	// The levels hold capacity-1 delimiters in all (level l has
	// prod(fanouts[:l]) nodes of fanouts[l]-1 each; the sum telescopes).
	if cap(t.store) < capacity-1 {
		t.store = make([]K, capacity-1)
	}
	t.store = t.store[:capacity-1]
	t.levels = t.levels[:0]
	// A node at level l spans sub*f conceptual partitions of the sorted
	// delimiter array padded with +inf; its i-th delimiter closes the
	// i-th child's span.
	nodes, sub, off := 1, capacity, 0
	for _, f := range fanouts {
		sub /= f
		level := t.store[off : off+nodes*(f-1)]
		for n := 0; n < nodes; n++ {
			for i := 0; i < f-1; i++ {
				v := kv.MaxKey[K]()
				if idx := n*sub*f + (i+1)*sub - 1; idx < len(delims) {
					v = delims[idx]
				}
				level[n*(f-1)+i] = v
			}
		}
		t.levels = append(t.levels, level)
		off += len(level)
		nodes *= f
	}
}

// nodeUpperBound returns the number of delimiters in node that are <= key.
// A node holds at most a few lane-widths of delimiters, so this linear
// lane-parallel count is the scalar expression of the paper's
// cmpgt + packs + movemask + bsf sequence. The count accumulates flag-set
// results instead of branching: every delimiter contributes one compare and
// one add, with no data-dependent jump for the predictor to miss. It is the
// fallback for fanouts off the menu's 5-, 8- and 9-way levels; see
// nodeSearch.
func nodeUpperBound[K kv.Key](node []K, key K) int {
	j := 0
	for _, d := range node {
		var c int
		if d <= key {
			c = 1
		}
		j += c
	}
	return j
}

// gt is 1 when d > k and 0 otherwise, without a branch: the borrow out of
// k - d.
func gt[K kv.Key](k uint64, d K) uint64 {
	_, b := bits.Sub64(k, uint64(d), 0)
	return b
}

// upperBound4, upperBound7 and upperBound8 are nodeUpperBound over the
// fixed-size nodes of the menu's 5-, 8- and 9-way levels: one bounds check
// per node instead of one per delimiter, no loop, and each delimiter
// counted by a subtract-with-borrow.
func upperBound4[K kv.Key](node *[4]K, key K) int {
	k := uint64(key)
	return 4 - int(gt(k, node[0])+gt(k, node[1])+gt(k, node[2])+gt(k, node[3]))
}

func upperBound7[K kv.Key](node *[7]K, key K) int {
	k := uint64(key)
	return 7 - int(gt(k, node[0])+gt(k, node[1])+gt(k, node[2])+gt(k, node[3])+
		gt(k, node[4])+gt(k, node[5])+gt(k, node[6]))
}

func upperBound8[K kv.Key](node *[8]K, key K) int {
	k := uint64(key)
	return 8 - int(gt(k, node[0])+gt(k, node[1])+gt(k, node[2])+gt(k, node[3])+
		gt(k, node[4])+gt(k, node[5])+gt(k, node[6])+gt(k, node[7]))
}

// nodeSearch returns the child of node r of a level of fanout f that key
// descends to: the level's node search, unrolled for the menu's fanouts.
func nodeSearch[K kv.Key](level []K, r, f int, key K) int {
	base := r * (f - 1)
	switch f {
	case 5:
		return r*f + upperBound4((*[4]K)(level[base:]), key)
	case 8:
		return r*f + upperBound7((*[7]K)(level[base:]), key)
	case 9:
		return r*f + upperBound8((*[8]K)(level[base:]), key)
	}
	return r*f + nodeUpperBound(level[base:base+f-1], key)
}

// Partition computes the range function for one key: the index of the first
// delimiter greater than the key.
func (t *Tree[K]) Partition(key K) int {
	r := 0
	for l, f := range t.fanouts {
		r = nodeSearch(t.levels[l], r, f, key)
	}
	if r >= t.p {
		r = t.p - 1
	}
	return r
}

// Fanout returns the number of partitions P.
func (t *Tree[K]) Fanout() int {
	return t.p
}

// Capacity returns the padded tree capacity (product of level fanouts).
func (t *Tree[K]) Capacity() int {
	return t.cap
}

// Levels returns the per-level fanouts of the configuration.
func (t *Tree[K]) Levels() []int {
	return append([]int(nil), t.fanouts...)
}

// LookupBatch computes the range function for a batch of keys, walking all
// keys through the tree level-synchronously. This is the paper's N-at-a-time
// loop unrolling, widened from the paper's 4 to 8 in-flight keys: each key's
// level walk is a chain of dependent loads, so with 8 independent chains the
// node loads overlap instead of serializing — which is where most of the
// index's speedup over binary search comes from, and scalar Go needs the
// extra width because one "node search" is several scalar compares, not one
// vector op. The node search is chosen once per level for all 8 keys, so
// the menu's fanouts run their unrolled searches without a per-key switch.
// The tail (at most 7 keys) runs Partition, which uses the same searches,
// so results are bit-identical at every length.
func (t *Tree[K]) LookupBatch(keys []K, out []int32) {
	if len(out) < len(keys) {
		panic("rangeidx: output batch too small")
	}
	const unroll = 8
	i := 0
	var r [unroll]int
	for ; i+unroll <= len(keys); i += unroll {
		for u := range r {
			r[u] = 0
		}
		for l, f := range t.fanouts {
			level := t.levels[l]
			switch f {
			case 5:
				for u := range r {
					r[u] = r[u]*5 + upperBound4((*[4]K)(level[r[u]*4:]), keys[i+u])
				}
			case 8:
				for u := range r {
					r[u] = r[u]*8 + upperBound7((*[7]K)(level[r[u]*7:]), keys[i+u])
				}
			case 9:
				for u := range r {
					r[u] = r[u]*9 + upperBound8((*[8]K)(level[r[u]*8:]), keys[i+u])
				}
			default:
				for u := range r {
					r[u] = nodeSearch(level, r[u], f, keys[i+u])
				}
			}
		}
		for u := 0; u < unroll; u++ {
			if r[u] >= t.p {
				r[u] = t.p - 1
			}
			out[i+u] = int32(r[u])
		}
	}
	for ; i < len(keys); i++ {
		out[i] = int32(t.Partition(keys[i]))
	}
}

// treeConfigs is the menu of sensible fanout configurations (Section
// 3.5.2): levels of the SIMD-friendly form k*W+1 (5-, 9-way for W=4) under
// an 8-way vertical root, matching the paper's 360-way (8x5x9), 1000-way
// (8x5x5x5) and 1800-way (8x5x5x9) picks, with smaller and larger
// configurations completing the menu.
var treeConfigs = [][]int{
	{5},             // 5
	{9},             // 9
	{8},             // 8 (vertical root only)
	{5, 5},          // 25
	{8, 5},          // 40
	{8, 9},          // 72
	{5, 5, 5},       // 125
	{8, 5, 5},       // 200
	{8, 5, 9},       // 360
	{8, 5, 5, 5},    // 1000
	{8, 5, 5, 9},    // 1800
	{8, 5, 9, 9},    // 3240
	{8, 9, 9, 9},    // 5832
	{8, 5, 5, 5, 9}, // 9000
}

// ChooseFanouts returns the smallest menu configuration with capacity at
// least p partitions.
func ChooseFanouts(p int) []int {
	return append([]int(nil), chooseFanouts(p)...)
}

// chooseFanouts is ChooseFanouts returning the menu entry itself, which
// callers must not mutate.
func chooseFanouts(p int) []int {
	best := []int(nil)
	bestCap := 0
	for _, cfg := range treeConfigs {
		c := 1
		for _, f := range cfg {
			c *= f
		}
		if c >= p && (best == nil || c < bestCap) {
			best, bestCap = cfg, c
		}
	}
	if best == nil {
		// Extend the largest configuration with 9-way levels.
		cfg := append([]int(nil), treeConfigs[len(treeConfigs)-1]...)
		c := 1
		for _, f := range cfg {
			c *= f
		}
		for c < p {
			cfg = append(cfg, 9)
			c *= 9
		}
		return cfg
	}
	return best
}

// NewTreeFor builds a tree for the given delimiters using the best menu
// configuration.
func NewTreeFor[K kv.Key](delims []K) *Tree[K] {
	return BuildTree(delims, ChooseFanouts(len(delims)+1))
}
