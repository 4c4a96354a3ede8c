package main

import (
	"math"
	"sort"
	"time"
)

// tailQuantiles are the candidate tail percentiles, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// rankIndex is the nearest-rank index of quantile q in n sorted samples.
func rankIndex(n int, q float64) int {
	// The epsilon keeps q·n on an integer (0.9·100) from rounding up.
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// beyond counts the samples ranked above quantile q's nearest-rank sample.
func beyond(n int, q float64) int { return n - 1 - rankIndex(n, q) }

// tailQuantile returns the highest candidate percentile that has at least
// ten samples beyond it, and false when even the median has fewer.
func tailQuantile(n int) (float64, bool) {
	for _, q := range tailQuantiles {
		if beyond(n, q) >= 10 {
			return q, true
		}
	}
	return 0, false
}

// quantile returns the nearest-rank quantile q of xs (sorted in place).
// It returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rankIndex(len(xs), q)]
}

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for an empty sample. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// span is one timed call into a layer. Times are offsets from the start of
// the traced run; parent is the index of the enclosing span, -1 for a root.
type span struct {
	name       string
	req        int32
	parent     int32
	start, end time.Duration
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover. Children may nest inside one another's
// intervals, overlap, or stick out of the parent; only their union inside
// the parent is subtracted, so a self time is never negative.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for i, s := range spans {
		ivs = ivs[:0]
		for _, c := range children[i] {
			a, b := spans[c].start, spans[c].end
			if a < s.start {
				a = s.start
			}
			if b > s.end {
				b = s.end
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered time.Duration
		var curA, curB time.Duration
		for k, v := range ivs {
			if k == 0 || v.a > curB {
				covered += curB - curA
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		if len(ivs) > 0 {
			covered += curB - curA
		}
		out[i] = s.end - s.start - covered
	}
	return out
}

// lagSummary describes how late an open-loop generator dispatched: each
// request's lag is its actual send time minus its due time (never below 0).
type lagSummary struct {
	N     int
	Late  int // requests sent more than 1 ms after they were due
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
	Total time.Duration
}

// lateness summarizes dispatch lag over a schedule. due and sent are offsets
// from the schedule start, index-aligned.
func lateness(due, sent []time.Duration) lagSummary {
	lags := make([]float64, len(due))
	var s lagSummary
	s.N = len(due)
	for i := range due {
		l := sent[i] - due[i]
		if l < 0 {
			l = 0
		}
		if l > time.Millisecond {
			s.Late++
		}
		if l > s.Max {
			s.Max = l
		}
		s.Total += l
		lags[i] = float64(l)
	}
	s.P50 = time.Duration(quantile(lags, 0.5))
	s.P99 = time.Duration(quantile(lags, 0.99))
	return s
}
