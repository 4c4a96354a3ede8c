package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// report writes the human-readable account of a run to stderr.
type report struct {
	in      *inputs
	seed    int64
	nproc   int
	seconds float64
	setups  []float64
}

func (r *report) printf(format string, a ...any) { fmt.Fprintf(os.Stderr, format, a...) }

func (r *report) header() {
	in := r.in
	fresh := 0
	for _, q := range in.timed {
		if q.fresh {
			fresh++
		}
	}
	r.printf("perfbench %s seed=%d nproc=%d GOMAXPROCS=%d %s\n",
		in.spec.name, r.seed, r.nproc, runtime.GOMAXPROCS(0), runtime.Version())
	r.printf("  inputs: %d pairs (%d answered in set-up), generated in %.2fs\n",
		len(in.items), len(in.base), in.genTime.Seconds())
	r.printf("  open loop %.0f req/s Poisson for %.0fs: %d requests, %.1f%% of them for a new pair\n",
		in.rate, r.seconds, len(in.timed), 100*float64(fresh)/float64(max(1, len(in.timed))))
}

func (r *report) phases(ps []phaseCount) {
	r.printf("  %-9s %7s %7s %7s %8s\n", "phase", "sent", "ok", "failed", "wall")
	for _, p := range ps {
		r.printf("  %-9s %7d %7d %7d %7.2fs\n", p.name, p.sent, p.ok, p.failed, p.wall.Seconds())
	}
}

// latencyLine prints the median, the highest percentile that has at least
// ten samples beyond it, and the 90th percentile when that is lower.
func (r *report) latencyLine(name string, lats []float64) {
	if len(lats) == 0 {
		r.printf("  %-14s no samples\n", name)
		return
	}
	q, ok := tailQuantile(len(lats))
	p50 := quantile(lats, 0.5)
	if !ok {
		r.printf("  %-14s p50 %.3f ms (n=%d, too few for a tail)\n", name, p50, len(lats))
		return
	}
	p90 := ""
	if q > 0.9 {
		p90 = fmt.Sprintf("  p90 %.3f ms", quantile(lats, 0.9))
	}
	r.printf("  %-14s p50 %.3f ms%s  p%g %.3f ms  (n=%d)\n", name, p50, p90, q*100, quantile(lats, q), len(lats))
}

func (r *report) endToEnd(e *e2e, m map[string]metric) {
	r.printf("  set-up times: %v s\n", r.setups)
	r.phases(e.phases)
	r.failures(e)
	// Latency split by what answered, timed from the due time.
	var all, hit, miss, pred []float64
	for i := range e.timed {
		o, q := &e.timed[i], r.in.timed[i]
		if o.bad != "" {
			continue
		}
		l := o.latency(q).Seconds() * 1e3
		all = append(all, l)
		switch {
		case r.in.spec.path == "/predict":
			pred = append(pred, l)
		case o.ans.Provenance == "cache":
			hit = append(hit, l)
		default:
			miss = append(miss, l)
		}
	}
	r.latencyLine("all", all)
	if r.in.spec.path == "/predict" {
		r.latencyLine("predict", pred)
	} else {
		r.latencyLine("query hit", hit)
		r.latencyLine("query miss", miss)
	}
	r.printf("  capacity %.1f req/s with %d closed-loop clients\n", e.capacity, r.nproc)
	r.printf("  failed_ratio %.4f (%d of %d)\n", float64(e.failed)/float64(max(1, e.attempted)), e.failed, e.attempted)
	r.printf("  generator lag: p50 %v p99 %v max %v total %v, %d of %d sent over 1ms late\n",
		e.lag.P50.Round(time.Microsecond), e.lag.P99.Round(time.Microsecond), e.lag.Max.Round(time.Microsecond),
		e.lag.Total.Round(time.Millisecond), e.lag.Late, e.lag.N)
	r.metrics(m)
}

func (r *report) failures(e *e2e) {
	if e.firstErr != "" {
		r.printf("  FAILED: first wrong answer: %s\n", e.firstErr)
	}
	if e.accountErr != nil {
		r.printf("  FAILED: %v\n", e.accountErr)
	}
}

func (r *report) metrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		r.printf("  %-28s %12.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
