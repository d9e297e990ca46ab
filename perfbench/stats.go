package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile; with fewer samples the tail is not resolved and the
// benchmark reports a lower percentile instead of guessing.
const minBeyond = 10

// tailQuantile returns the highest quantile, at most maxQ, that leaves at
// least minBeyond of n samples above it. Below 2*minBeyond samples no
// tail is resolved and the median (0.5) is returned.
func tailQuantile(n int, maxQ float64) float64 {
	if n <= 0 {
		return 0.5
	}
	q := 1 - float64(minBeyond)/float64(n)
	if q > maxQ {
		q = maxQ
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// rankQuantile returns the nearest-rank q-quantile of xs (sorted in
// place): the smallest sample with at least q*n samples at or below it.
// With q = tailQuantile(n, ...) exactly minBeyond samples lie above it.
func rankQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	// The epsilon keeps q*n from rounding up past an exact rank.
	i := int(math.Ceil(q*float64(len(xs))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median returns the median of xs (sorted in place), averaging the two
// middle samples of an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// latencySummary is the median and resolved tail of one latency sample.
type latencySummary struct {
	P50, Tail float64
	TailQ     float64
	N         int
}

// summarize reports the median and the highest percentile up to maxQ
// with at least minBeyond samples beyond it. Failed requests enter xs as
// +Inf, so they count as missing any latency limit.
func summarize(xs []float64, maxQ float64) latencySummary {
	c := append([]float64(nil), xs...)
	q := tailQuantile(len(c), maxQ)
	p50 := median(c)
	// With too few samples for a tail, q is 0.5 and the tail is the median.
	return latencySummary{P50: p50, Tail: max(rankQuantile(c, q), p50), TailQ: q, N: len(c)}
}

// ladderStep is one constant-rate step of the open-loop rate ladder.
type ladderStep struct {
	Rate float64
	// Lat holds the latency (ms, from scheduled send time) of every
	// request scheduled in the step; failures are +Inf.
	Lat []float64
	// BacklogStart and BacklogEnd are the client's due-but-unsent
	// request counts at the step's start and end.
	BacklogStart, BacklogEnd int
}

// backlogGrows reports whether the client's backlog grew over a step by
// more than scheduling jitter explains: two requests or a twentieth of
// the step's requests, whichever is more.
func backlogGrows(start, end, scheduled int) bool {
	slack := scheduled / 20
	if slack < 2 {
		slack = 2
	}
	return end-start > slack
}

// stepMeets reports whether a step met the service objective: its tail
// latency (p99, or the highest percentile the step resolves) within
// limitMs, and no growing backlog.
func stepMeets(s ladderStep, limitMs float64) bool {
	if len(s.Lat) == 0 {
		return false
	}
	if summarize(s.Lat, 0.99).Tail > limitMs {
		return false
	}
	return !backlogGrows(s.BacklogStart, s.BacklogEnd, len(s.Lat))
}

// sloRate returns the highest rate at which a ladder step met the
// objective, 0 when none did. The ladder's stopping rule (see ladder)
// keeps it from running far past the knee.
func sloRate(steps []ladderStep, limitMs float64) float64 {
	best := 0.0
	for _, s := range steps {
		if stepMeets(s, limitMs) {
			best = max(best, s.Rate)
		}
	}
	return best
}

// windowedTail splits latencies, ordered by scheduled time, into windows
// of size requests and returns the median over windows of each window's
// tail (the highest percentile up to p99 with minBeyond samples beyond
// it), with the quantile used. One stall of the host moves one window's
// tail, not the reported value.
func windowedTail(lat []float64, size int) (float64, float64) {
	var tails []float64
	q := 0.5
	for lo := 0; lo+size <= len(lat); lo += size {
		s := summarize(lat[lo:lo+size], 0.99)
		tails, q = append(tails, s.Tail), s.TailQ
	}
	if len(tails) == 0 {
		s := summarize(lat, 0.99)
		return s.Tail, s.TailQ
	}
	return median(tails), q
}
