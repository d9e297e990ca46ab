// Server metric families, registered on the obs registry that
// ServeMetrics exposes. Hot-path updates are single atomics (counters,
// gauges) or two atomic adds (histograms); everything here is
// documented, family by family, in OPERATIONS.md — cmd/doccheck -ops
// enforces that the table stays complete.

package server

import (
	"sync"

	partsort "repro"
	"repro/internal/obs"
)

// serverPrefix prefixes every daemon metric family.
const serverPrefix = "partsort_server_"

// maxTenantSeries caps the number of distinct tenants that get their own
// labeled series; later tenants are folded into the "~other" bucket so a
// tenant-id cardinality attack cannot grow the registry without bound.
const maxTenantSeries = 64

// metrics holds the server's registered metric handles.
type metrics struct {
	queueDepth   *obs.Gauge
	inflight     *obs.Gauge
	pendingAux   *obs.Gauge
	pendingSpill *obs.Gauge

	admitted           *obs.Counter
	rejectedQueue      *obs.Counter
	rejectedMemory     *obs.Counter
	rejectedTenant     *obs.Counter
	rejectedDraining   *obs.Counter
	rejectedInvalid    *obs.Counter
	rejectedOverBudget *obs.Counter

	spilled *obs.Counter

	requestsOK       *obs.Counter
	requestsErr      *obs.Counter
	requestsCanceled *obs.Counter

	queueWait  *obs.Histogram
	requestDur *obs.Histogram
	batchSize  *obs.Histogram
	sortDurs   [3]*obs.Histogram

	batchesMerged *obs.Counter
}

// newMetrics registers (get-or-create) the server families on reg.
func newMetrics(reg *obs.Registry) *metrics {
	m := &metrics{}
	m.queueDepth = reg.Gauge(serverPrefix+"queue_depth",
		"Admitted-but-unfinished sort requests (queued + coalescing + executing).")
	m.inflight = reg.Gauge(serverPrefix+"inflight_jobs",
		"Jobs currently executing on the server's worker pool.")
	m.pendingAux = reg.Gauge(serverPrefix+"pending_aux_bytes",
		"Admission ledger: estimated auxiliary bytes of all admitted requests.")
	m.pendingSpill = reg.Gauge(serverPrefix+"pending_spill_bytes",
		"Disk ledger: estimated spill-file bytes of all admitted external (over-budget) jobs.")

	adm := func(outcome string) *obs.Counter {
		return reg.Counter(serverPrefix+"admissions_total",
			"Admission-control verdicts by outcome.", obs.L("outcome", outcome))
	}
	m.admitted = adm("admitted")
	m.rejectedQueue = adm("rejected_queue")
	m.rejectedMemory = adm("rejected_memory")
	m.rejectedTenant = adm("rejected_tenant")
	m.rejectedDraining = adm("rejected_draining")
	m.rejectedInvalid = adm("rejected_invalid")
	m.rejectedOverBudget = adm("rejected_over_budget")

	m.spilled = reg.Counter(serverPrefix+"spilled_total",
		"Requests that exceeded the memory ledger and degraded onto the external (disk-spilling) sort.")

	st := func(status string) *obs.Counter {
		return reg.Counter(serverPrefix+"requests_total",
			"Finished sort requests by final status.", obs.L("status", status))
	}
	m.requestsOK = st("ok")
	m.requestsErr = st("error")
	m.requestsCanceled = st("canceled")

	m.queueWait = reg.Histogram(serverPrefix+"queue_wait_seconds",
		"Admission-to-execution wait per request.")
	m.requestDur = reg.Histogram(serverPrefix+"request_seconds",
		"Admission-to-completion latency per request.")
	m.batchSize = reg.Histogram(serverPrefix+"batch_requests",
		"Requests coalesced per merged batch.")
	for i, algo := range []partsort.Algorithm{partsort.LSB, partsort.MSB, partsort.CMP} {
		m.sortDurs[i] = reg.Histogram(serverPrefix+"sort_seconds",
			"Sort execution time by algorithm (merged batches record under LSB).",
			obs.L("algo", algo.String()))
	}
	m.batchesMerged = reg.Counter(serverPrefix+"batches_total",
		"Merged coalesced runs executed.")
	return m
}

// sortDur returns the per-algorithm sort-duration histogram.
func (m *metrics) sortDur(a partsort.Algorithm) *obs.Histogram {
	if a < partsort.LSB || a > partsort.CMP {
		a = partsort.LSB
	}
	return m.sortDurs[a]
}

// tenantEntry is one tenant's accounting row.
type tenantEntry struct {
	inflight int64
	gauge    *obs.Gauge
	total    *obs.Counter
}

// tenantTable tracks per-tenant in-flight counts and their labeled
// series, folding tenants past maxTenantSeries into one overflow bucket.
type tenantTable struct {
	mu      sync.Mutex
	reg     *obs.Registry
	entries map[string]*tenantEntry
}

// newTenantTable returns an empty table registering on reg.
func newTenantTable(reg *obs.Registry) *tenantTable {
	return &tenantTable{reg: reg, entries: make(map[string]*tenantEntry)}
}

// entryFor returns (creating if needed) the tenant's row, applying the
// cardinality cap.
func (t *tenantTable) entryFor(tenant string) *tenantEntry {
	e := t.entries[tenant]
	if e == nil {
		if len(t.entries) >= maxTenantSeries {
			tenant = "~other"
			if e = t.entries[tenant]; e != nil {
				return e
			}
		}
		e = &tenantEntry{
			gauge: t.reg.Gauge(serverPrefix+"tenant_inflight",
				"Admitted-but-unfinished requests per tenant.", obs.L("tenant", tenant)),
			total: t.reg.Counter(serverPrefix+"tenant_requests_total",
				"Admitted requests per tenant.", obs.L("tenant", tenant)),
		}
		t.entries[tenant] = e
	}
	return e
}

// acquire charges one request to the tenant, enforcing the per-tenant
// cap (0: uncapped). Returns false when the cap rejected it.
func (t *tenantTable) acquire(tenant string, cap int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entryFor(tenant)
	if cap > 0 && e.inflight >= int64(cap) {
		return false
	}
	e.inflight++
	e.gauge.Set(float64(e.inflight))
	e.total.Inc()
	return true
}

// release returns one request's charge.
func (t *tenantTable) release(tenant string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entryFor(tenant)
	if e.inflight > 0 {
		e.inflight--
	}
	e.gauge.Set(float64(e.inflight))
}
