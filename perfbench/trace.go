package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer, or a phase of
// it the layer reported back (queue wait, sort time). Times are
// nanoseconds since the tracer started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per span site.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span id, so children can name their parent before
// the parent span ends. Span ids start at 1; 0 means "no parent".
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// reqIDs reserves n request ids and returns the first, so requests of
// different load runs never share one. A nil tracer returns 0.
func (t *tracer) reqIDs(n int) int64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(int64(n)) - int64(n)
}

// add records a finished span under a reserved id (0 reserves one) and
// returns the id.
func (t *tracer) add(id, parent uint64, req int64, name string, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.newID()
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfStat aggregates the spans of one name.
type selfStat struct {
	Name            string
	Count           int
	TotalNs, SelfNs int64
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children's intervals cover;
// overlapping children are counted once.
func selfTimes(spans []span) []selfStat {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	agg := make(map[string]*selfStat)
	for _, s := range spans {
		st := agg[s.Name]
		if st == nil {
			st = &selfStat{Name: s.Name}
			agg[s.Name] = st
		}
		dur := s.End - s.Start
		st.Count++
		st.TotalNs += dur
		st.SelfNs += dur - covered(s.Start, s.End, kids[s.ID])
	}
	out := make([]selfStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of [lo, hi) the union of the children's
// intervals covers.
func covered(lo, hi int64, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, lo
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// printSelfTimes writes the per-name span table to stdout.
func printSelfTimes(spans []span) {
	for _, st := range selfTimes(spans) {
		fmt.Printf("span %-28s count=%-6d total_ms=%.3f self_ms=%.3f\n",
			st.Name, st.Count, float64(st.TotalNs)/1e6, float64(st.SelfNs)/1e6)
	}
}
