// Package memmodel models the memory-hierarchy effects that drive the
// paper's partitioning performance (Section 3.2): TLB thrashing, cache
// conflicts, software write-combining, SMT latency hiding, and the NUMA
// interconnect penalty.
//
// It provides two tools:
//
//   - CacheSim, a trace-driven set-associative cache + TLB simulator.
//     Instrumented partitioning walkers replay the exact address stream of
//     a partitioning variant through it, producing miss counts that show —
//     in event space rather than wall-clock — the cliffs the paper
//     measures (e.g. in-cache partitioning collapsing once the fanout
//     exceeds the TLB).
//
//   - An analytic cost model that converts per-tuple event rates into
//     modeled throughput for the paper's hardware profile (4x Xeon
//     E5-4620). The figure harness plots these modeled curves alongside
//     the real measured wall-clock of this repository's Go implementation,
//     because a 1-core VM cannot physically exhibit 64-thread NUMA
//     behavior (see DESIGN.md, substitution table).
package memmodel

// Profile describes the modeled machine. The zero value is not useful; use
// PaperProfile or build one explicitly.
type Profile struct {
	// Cache hierarchy (per core for L1/L2, per socket for L3).
	L1Bytes   int
	L2Bytes   int
	L3Bytes   int
	LineBytes int
	Assoc     int // associativity used by CacheSim for all levels

	// TLB.
	TLBEntries int
	PageBytes  int

	// Latencies in nanoseconds (load-to-use).
	L1Lat  float64
	L2Lat  float64
	L3Lat  float64
	RAMLat float64
	TLBLat float64 // page-walk penalty

	// Aggregate bandwidths in GB/s for the whole machine.
	ReadBW  float64
	WriteBW float64
	CopyBW  float64

	// Parallelism.
	Sockets        int
	CoresPerSocket int
	SMTPerCore     int

	// NUMA: multiplicative latency factor for remote accesses and the
	// bandwidth fraction available over the interconnect.
	NUMARemoteFactor float64

	// ScalarOpNs is the cost of one simple ALU op chain step (used to
	// price partition-function computation and loop overhead).
	ScalarOpNs float64
}

// PaperProfile returns the evaluation platform of Section 5: 4x Intel Xeon
// E5-4620 (Sandy Bridge, 2.2 GHz, 8 cores, 2-way SMT), 32 KB L1D, 256 KB
// L2, 8 MB shared L3, 512 GB DDR3-1333. Measured bandwidths from the
// paper: 122 GB/s read, 60 GB/s write, 37.3 GB/s copy.
func PaperProfile() Profile {
	return Profile{
		L1Bytes:   32 << 10,
		L2Bytes:   256 << 10,
		L3Bytes:   8 << 20,
		LineBytes: 64,
		Assoc:     8,

		TLBEntries: 64,
		PageBytes:  4 << 10,

		L1Lat:  1.8,  // ~4 cycles at 2.2 GHz
		L2Lat:  5.5,  // ~12 cycles
		L3Lat:  13.6, // ~30 cycles
		RAMLat: 90,
		TLBLat: 45, // page walk with PDE pressure

		ReadBW:  122,
		WriteBW: 60,
		CopyBW:  37.3,

		Sockets:        4,
		CoresPerSocket: 8,
		SMTPerCore:     2,

		// Chosen so an interleaved random-write pass is ~75% slower
		// than a local one, matching the "more than 50% slower" the paper
		// measured on 4 regions (Section 3.3 / Figure 14).
		NUMARemoteFactor: 2.0,

		ScalarOpNs: 0.45, // ~1 cycle
	}
}

// ModernProfile returns a contemporary 2-socket server (EPYC-class: 64
// cores, 2-way SMT, bigger caches, 1.5K-entry TLBs, DDR5 bandwidth). The
// paper's shape claims are architectural, not tied to the 2014 platform;
// the test suite asserts they hold on this profile too — the cliffs just
// move to larger fanouts.
func ModernProfile() Profile {
	return Profile{
		L1Bytes:   48 << 10,
		L2Bytes:   1 << 20,
		L3Bytes:   96 << 20,
		LineBytes: 64,
		Assoc:     8,

		TLBEntries: 1536, // L2 dTLB reach
		PageBytes:  4 << 10,

		L1Lat:  1.0,
		L2Lat:  3.5,
		L3Lat:  12,
		RAMLat: 80,
		TLBLat: 35,

		ReadBW:  450,
		WriteBW: 300,
		CopyBW:  200,

		Sockets:        2,
		CoresPerSocket: 64,
		SMTPerCore:     2,

		NUMARemoteFactor: 1.8,
		ScalarOpNs:       0.3,
	}
}

// Threads returns the machine's hardware thread count.
func (p Profile) Threads() int {
	return p.Sockets * p.CoresPerSocket * p.SMTPerCore
}

// Cores returns the machine's physical core count.
func (p Profile) Cores() int {
	return p.Sockets * p.CoresPerSocket
}
