package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nnlqp/internal/slo"
)

// answer is the part of a /query or /predict response body the benchmark
// checks.
type answer struct {
	LatencyMS   float64 `json:"latency_ms"`
	Provenance  string  `json:"provenance"`
	Tier        string  `json:"tier"`
	Degraded    bool    `json:"degraded"`
	StoreFailed bool    `json:"store_failed"`
	Memoized    bool    `json:"memoized"`
	Generation  uint64  `json:"generation"`
}

// outcome is one request's fate. sent and done are offsets from the phase
// start, like the request's due time.
type outcome struct {
	sent, done time.Duration
	status     int
	err        error
	ans        answer
	prior      bool   // the pair had already been answered when this was sent
	bad        string // why the request failed, "" if it passed every check
}

// latency is the client-seen latency, timed from when the request was due.
func (o *outcome) latency(q request) time.Duration { return o.done - q.due }

// tally counts what the benchmark sent to one stack and how it was answered,
// for the cross-check against the servers' own counters.
type tally struct {
	mu       sync.Mutex
	sent     int64
	failed   int64
	byKind   map[string]int64 // /query: provenance; /predict: "memo" or "new"
	newPairs map[int32]bool   // /predict: pairs answered without the memo
}

func newTally() *tally {
	return &tally{byKind: map[string]int64{}, newPairs: map[int32]bool{}}
}

// target is one stack as the benchmark drives it.
type target struct {
	in       *inputs
	hc       *http.Client
	url      string // base URL + path
	gen      uint64 // expected predictor generation (/predict)
	answered []atomic.Bool
	tally    *tally
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			MaxIdleConns:        conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: 60 * time.Second,
	}
}

// send posts one request and checks the answer.
func (t *target) send(q request, t0 time.Time) outcome {
	it := t.in.items[q.item]
	o := outcome{sent: time.Since(t0), prior: t.answered[q.item].Load()}
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, t.url, bytes.NewReader(it.body))
	if err != nil {
		o.err = err
	} else {
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(slo.Header, string(q.class))
		var resp *http.Response
		resp, o.err = t.hc.Do(req)
		if o.err == nil {
			var data []byte
			data, o.err = io.ReadAll(resp.Body)
			resp.Body.Close()
			o.status = resp.StatusCode
			if o.err == nil && o.status == http.StatusOK {
				o.err = json.Unmarshal(data, &o.ans)
			} else if o.err == nil {
				o.bad = fmt.Sprintf("status %d: %s", o.status, bytes.TrimSpace(data))
			}
		}
	}
	o.done = time.Since(t0)
	t.judge(q, &o)
	return o
}

// judge checks an answer against the oracle and the expected provenance, and
// counts it. A /predict value is checked after the run, once the oracle
// predictor has computed it.
func (t *target) judge(q request, o *outcome) {
	it := t.in.items[q.item]
	a := &o.ans
	switch {
	case o.err != nil:
		o.bad = o.err.Error()
	case o.bad != "":
	case t.in.spec.path == "/query":
		switch {
		case a.Degraded || a.StoreFailed:
			o.bad = fmt.Sprintf("degraded=%v store_failed=%v", a.Degraded, a.StoreFailed)
		case a.LatencyMS != it.want:
			o.bad = fmt.Sprintf("latency_ms %v, want %v", a.LatencyMS, it.want)
		case o.prior && (a.Provenance != "cache" || a.Tier != "l1"):
			o.bad = fmt.Sprintf("repeat answered %s/%s, want cache/l1", a.Provenance, a.Tier)
		case a.Provenance != "cache" && a.Provenance != "measured" && a.Provenance != "coalesced":
			o.bad = "provenance " + a.Provenance
		}
	default:
		switch {
		case a.Generation != t.gen:
			o.bad = fmt.Sprintf("generation %d, want %d", a.Generation, t.gen)
		case o.prior && !a.Memoized:
			o.bad = "repeat not memoized"
		}
	}
	t.tally.mu.Lock()
	defer t.tally.mu.Unlock()
	t.tally.sent++
	if o.bad != "" {
		t.tally.failed++
		return
	}
	t.answered[q.item].Store(true)
	if t.in.spec.path == "/query" {
		t.tally.byKind[a.Provenance]++
	} else if a.Memoized {
		t.tally.byKind["memo"]++
	} else {
		t.tally.byKind["new"]++
		t.tally.newPairs[q.item] = true
	}
}

// sleepUntil blocks the calling goroutine until the offset d past t0. The
// runtime timer wakes about half a millisecond late on Linux, and that lag
// would be charged to every request; a thread blocked in nanosleep is
// punctual but holds its P until the runtime takes it back. So it sleeps on
// the timer until a millisecond before d and in nanosleep for the rest.
func sleepUntil(t0 time.Time, d time.Duration) {
	if w := d - time.Since(t0) - time.Millisecond; w > 0 {
		time.Sleep(w)
	}
	if w := d - time.Since(t0); w > 0 {
		ts := syscall.NsecToTimespec(int64(w))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only dispatches early
	}
}

// openLoop sends each request at its due time, whatever the earlier ones are
// doing, through at most senders concurrent calls of do. A request waits for
// a free sender, and that wait counts in its latency. It returns the
// outcomes index-aligned with reqs and the phase's wall time.
func openLoop(reqs []request, senders int, do func(q request, t0 time.Time) outcome) ([]outcome, time.Duration) {
	out := make([]outcome, len(reqs))
	ch := make(chan int)
	var wg sync.WaitGroup
	t0 := time.Now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				out[i] = do(reqs[i], t0)
			}
		}()
	}
	for i, q := range reqs {
		sleepUntil(t0, q.due)
		ch <- i
	}
	close(ch)
	wg.Wait()
	return out, time.Since(t0)
}

// closedLoop runs clients that each send their next request as soon as the
// previous one returns, until the list runs out or d has passed. It returns
// the outcomes of the requests sent, in list order, and the phase's wall
// time. A closed-loop request is due when its client sends it.
func closedLoop(reqs []request, clients int, d time.Duration, do func(q request, t0 time.Time) outcome) ([]outcome, time.Duration) {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < d {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				q := reqs[i]
				q.due = time.Since(t0)
				out[i] = do(q, t0)
			}
		}()
	}
	wg.Wait()
	n := int(next.Load())
	if n > len(reqs) {
		n = len(reqs)
	}
	return out[:n], time.Since(t0)
}
