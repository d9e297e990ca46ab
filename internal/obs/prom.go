package obs

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// Prometheus text-format exposition (version 0.0.4) of a Registry. The
// scrape path is cold: it may allocate freely; only recording is
// allocation-free.

// WritePrometheus renders every family of the registry in the Prometheus
// text format. Histograms are rendered with cumulative log-linear
// buckets, eliding empty ones: in seconds for *_seconds families
// (recorded nanoseconds scaled by 1e-9), in raw counts for the rest.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.families() {
		if f.help != "" {
			bw.WriteString("# HELP " + f.name + " " + f.help + "\n")
		}
		bw.WriteString("# TYPE " + f.name + " " + f.kind.promType() + "\n")
		for _, s := range f.series {
			if f.kind == kindHistogram {
				writePromHistogram(bw, f.name, s)
				continue
			}
			bw.WriteString(f.name + s.key + " " + formatFloat(s.value()) + "\n")
		}
	}
	return bw.Flush()
}

// writePromHistogram renders one histogram series: cumulative *_bucket
// lines for every non-empty bucket plus +Inf, then *_sum and *_count.
func writePromHistogram(bw *bufio.Writer, name string, s *series) {
	format := func(v uint64) string { return strconv.FormatUint(v, 10) }
	if strings.HasSuffix(name, "_seconds") {
		format = func(ns uint64) string { return formatFloat(float64(ns) * 1e-9) }
	}
	snap := s.h.Snapshot()
	var cum uint64
	for i, c := range snap.Buckets {
		if c == 0 {
			continue
		}
		cum += c
		bw.WriteString(name + "_bucket" + labelsWithLe(s.key, format(BucketUpper(i))) + " " +
			strconv.FormatUint(cum, 10) + "\n")
	}
	bw.WriteString(name + "_bucket" + labelsWithLe(s.key, "+Inf") + " " +
		strconv.FormatUint(snap.Count, 10) + "\n")
	bw.WriteString(name + "_sum" + s.key + " " + format(snap.Sum) + "\n")
	bw.WriteString(name + "_count" + s.key + " " + strconv.FormatUint(snap.Count, 10) + "\n")
}

// labelsWithLe appends the `le` label to an already-rendered label set.
func labelsWithLe(key, le string) string {
	if key == "" {
		return `{le="` + le + `"}`
	}
	return key[:len(key)-1] + `,le="` + le + `"}`
}

// formatFloat renders a float the way Prometheus clients do (shortest
// round-trip representation).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Expvar returns the registry as a JSON-marshalable map for the expvar
// endpoint: plain values for counters/gauges, {count, sum, p50, p95,
// p99} summaries for histograms (durations in nanoseconds as recorded).
func (r *Registry) Expvar() map[string]any {
	out := make(map[string]any)
	for _, f := range r.families() {
		for _, s := range f.series {
			name := f.name + s.key
			if f.kind == kindHistogram {
				snap := s.h.Snapshot()
				out[name] = map[string]any{
					"count": snap.Count,
					"sum":   snap.Sum,
					"p50":   snap.Quantile(0.50),
					"p95":   snap.Quantile(0.95),
					"p99":   snap.Quantile(0.99),
				}
				continue
			}
			out[name] = s.value()
		}
	}
	return out
}
