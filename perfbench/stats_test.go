package main

import (
	"testing"
	"time"
)

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},  // the median has 9 samples beyond it
		{20, 0.5, true}, // 10 beyond the median
		{99, 0.5, true},
		{100, 0.9, true}, // rank 90 of 100: 10 beyond
		{199, 0.9, true},
		{200, 0.95, true},
		{999, 0.95, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
	}
	for _, c := range cases {
		got, ok := tailQuantile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v,%v; want %v,%v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < 10 {
			t.Errorf("n=%d: only %d samples beyond p%v", c.n, beyond(c.n, got), got*100)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := quantile(xs, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := quantile(xs, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{name: "root", parent: -1, start: ms(0), end: ms(100)},
		{name: "a", parent: 0, start: ms(10), end: ms(30)},
		{name: "b", parent: 0, start: ms(20), end: ms(50)}, // overlaps a
		{name: "c", parent: 0, start: ms(60), end: ms(70)},
		{name: "a1", parent: 1, start: ms(12), end: ms(18)}, // nested in a
		{name: "d", parent: 0, start: ms(95), end: ms(120)}, // sticks out of root
		{name: "e", parent: 0, start: ms(30), end: ms(40)},  // inside a∪b
	}
	got := selfTimes(spans)
	// root: children cover [10,50] ∪ [60,70] ∪ [95,100] = 40+10+5 = 55.
	want := []time.Duration{ms(45), ms(14), ms(30), ms(10), ms(6), ms(25), ms(10)}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, got[i], want[i])
		}
	}
}

func TestSelfTimeNoChildrenAndFullCover(t *testing.T) {
	spans := []span{
		{name: "p", parent: -1, start: ms(5), end: ms(15)},
		{name: "x", parent: 0, start: ms(0), end: ms(20)}, // covers all of p
	}
	got := selfTimes(spans)
	if got[0] != 0 || got[1] != ms(20) {
		t.Errorf("self = %v, want [0 20ms]", got)
	}
}

func TestLatenessSyntheticSchedule(t *testing.T) {
	// Ten requests due every 10 ms. The generator stalls once: requests 3..5
	// go out together at 55 ms; one is sent early (clock skew), which must
	// count as zero lag, not negative.
	due := make([]time.Duration, 10)
	sent := make([]time.Duration, 10)
	for i := range due {
		due[i] = ms(10 * i)
		sent[i] = due[i] + 200*time.Microsecond
	}
	sent[3], sent[4], sent[5] = ms(55), ms(55), ms(55)
	sent[9] = due[9] - time.Millisecond
	s := lateness(due, sent)
	if s.N != 10 || s.Late != 3 {
		t.Fatalf("N=%d Late=%d, want 10 and 3", s.N, s.Late)
	}
	if s.Max != ms(25) {
		t.Errorf("max lag %v, want 25ms", s.Max)
	}
	// lags: six of 0.2ms, one 0, 25, 15, 5 ms.
	if wantTotal := ms(45) + 6*200*time.Microsecond; s.Total != wantTotal {
		t.Errorf("total lag %v, want %v", s.Total, wantTotal)
	}
	if s.P50 != 200*time.Microsecond || s.P99 != ms(25) {
		t.Errorf("p50=%v p99=%v", s.P50, s.P99)
	}
}
