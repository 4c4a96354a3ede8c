package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"nnlqp/internal/cluster"
	"nnlqp/internal/core"
	"nnlqp/internal/db"
	"nnlqp/internal/server"
	"nnlqp/internal/slo"
)

const (
	// trainEpochs keeps predictor training to about a second per set-up.
	trainEpochs = 3
	// devicesPerPlatform matches nnlqp-server's default farm.
	devicesPerPlatform = 2
)

// stack is one running serving stack: one serving core on loopback TCP, or
// two replicas sharing a durable store behind a cache-affinity router.
type stack struct {
	url      string   // where clients send /query and /predict
	replicas []string // base URLs of the serving cores
	router   string   // base URL of the router, "" when there is none
	cores    []*server.Server
	store    *db.Store
	dir      string
	pred     *core.Predictor
	fit      time.Duration
	stops    []func() error
	hc       *http.Client
	tgt      *target
}

// trainPredictor fits a default-architecture multi-platform predictor on
// the workload's training graphs.
func trainPredictor(in *inputs, workers int) (*core.Predictor, time.Duration, error) {
	t0 := time.Now()
	samples := make([]core.Sample, len(in.train))
	for i, tg := range in.train {
		s, err := core.NewSample(tg.g, tg.latency, tg.platform)
		if err != nil {
			return nil, 0, err
		}
		samples[i] = s
	}
	cfg := core.DefaultConfig()
	cfg.Epochs = trainEpochs
	cfg.Workers = workers
	p := core.New(cfg)
	if err := p.Fit(samples); err != nil {
		return nil, 0, err
	}
	return p, time.Since(t0), nil
}

// setUp starts a fresh stack for the workload and answers its base pairs
// once through it, so they are stored and cached before anything is timed.
// single drops the router of a routed workload and keeps one replica.
func setUp(in *inputs, workers int, tmpRoot string, single bool) (st *stack, err error) {
	sp := in.spec
	routed := sp.routed && !single
	st = &stack{hc: newHTTPClient(workers)}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	if sp.trainPerPlatform > 0 {
		if st.pred, st.fit, err = trainPredictor(in, workers); err != nil {
			return st, fmt.Errorf("train: %w", err)
		}
	}
	if sp.routed {
		// The evolving database is durable: a WAL in a temp dir, fsynced on
		// every commit batch (the store's default).
		if st.dir, err = os.MkdirTemp(tmpRoot, "db-"); err != nil {
			return st, err
		}
	}
	if st.store, err = db.OpenStore(st.dir); err != nil {
		return st, err
	}
	meas := server.NewLocalMeasurementRole(devicesPerPlatform)
	n := 1
	if routed {
		n = 2
	}
	for i := 0; i < n; i++ {
		c := server.NewCore(server.NewStorageRole(st.store, 0, 0), meas, st.pred)
		if sp.routed {
			// Admission is on, with room for four times the offered rate, so
			// it should never shed.
			c.ConfigureAdmission(server.AdmissionConfig{Rate: 4 * in.rate, Burst: in.rate, QueueCap: 256})
		}
		addr, stop, err := c.Serve("127.0.0.1:0")
		if err != nil {
			return st, err
		}
		st.cores = append(st.cores, c)
		st.stops = append(st.stops, stop)
		st.replicas = append(st.replicas, "http://"+addr)
	}
	st.url = st.replicas[0]
	if routed {
		rt := cluster.New(cluster.Config{Policy: cluster.CacheAffinity{}})
		for i, r := range st.replicas {
			rt.AddReplica(fmt.Sprintf("replica-%d", i), r)
		}
		addr, stop, err := rt.Serve("127.0.0.1:0")
		if err != nil {
			return st, err
		}
		// Stop the router before the replicas behind it.
		st.stops = append([]func() error{stop}, st.stops...)
		st.router = "http://" + addr
		st.url = st.router
	}
	st.tgt = &target{
		in: in, hc: st.hc, url: st.url + sp.path,
		answered: make([]atomic.Bool, len(in.items)), tally: newTally(),
	}
	if st.pred != nil {
		st.tgt.gen = st.pred.Generation()
	}
	cls := sp.freshClass
	if cls == "" {
		cls = sp.repeatClass
	}
	if err := answerBase(in, workers, cls, st.tgt.send); err != nil {
		return st, err
	}
	return st, nil
}

// answerBase answers the base pairs once, platform by platform, and the
// first pair of each platform on its own. Two races in db.Store make a
// concurrent first write fail: InsertPlatform and InsertModel each look a
// row up and insert it without a lock in between, so two first queries on
// one platform can answer 500 (unique index violation on platform.name),
// and one graph's first queries on two platforms can answer store_failed
// and leave a pair unstored. The order here keeps every set-up clear of
// both; the timed phases never write a platform row and send each fresh
// graph to one platform only.
func answerBase(in *inputs, workers int, cls slo.Class, do func(q request, t0 time.Time) outcome) error {
	for _, plat := range platforms {
		var reqs []request
		for _, id := range in.base {
			if in.items[id].platform == plat {
				reqs = append(reqs, request{item: id, class: cls, fresh: true})
			}
		}
		if len(reqs) == 0 {
			continue
		}
		first, _ := closedLoop(reqs[:1], 1, time.Hour, do)
		rest, _ := closedLoop(reqs[1:], workers, time.Hour, do)
		for _, o := range append(first, rest...) {
			if o.bad != "" {
				return fmt.Errorf("set-up answer: %s", o.bad)
			}
		}
	}
	return nil
}

// close stops every server the stack started, waits for them to drain, and
// removes its files.
func (st *stack) close() {
	for _, stop := range st.stops {
		_ = stop() // shutting down; a drain timeout has nothing left to serve
	}
	st.stops = nil
	if st.hc != nil {
		st.hc.CloseIdleConnections()
	}
	if st.store != nil {
		_ = st.store.Close()
		st.store = nil
	}
	if st.dir != "" {
		_ = os.RemoveAll(st.dir)
		st.dir = ""
	}
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// counters are the servers' own view of what they served.
type counters struct {
	replicas []server.StatsResponse
	cluster  *cluster.StatusResponse
	engine   db.EngineStats
	sum      server.StatsResponse // replica counters summed
}

func (st *stack) counters() (*counters, error) {
	c := &counters{engine: st.store.EngineStats()}
	for _, r := range st.replicas {
		var s server.StatsResponse
		if err := getJSON(st.hc, r+"/stats", &s); err != nil {
			return nil, err
		}
		c.replicas = append(c.replicas, s)
		c.sum.Queries += s.Queries
		c.sum.Hits += s.Hits
		c.sum.Misses += s.Misses
		c.sum.Coalesced += s.Coalesced
		c.sum.Failures += s.Failures
		c.sum.L1Hits += s.L1Hits
		c.sum.MemoHits += s.MemoHits
		c.sum.MemoSize += s.MemoSize
		c.sum.AdmitRequests += s.AdmitRequests
		c.sum.Admitted += s.Admitted
		c.sum.Shed += s.Shed
		c.sum.Queued += s.Queued
	}
	// The replicas share one farm, so each reports the same device wait.
	c.sum.DeviceWaitSec = c.replicas[0].DeviceWaitSec
	if st.router != "" {
		c.cluster = new(cluster.StatusResponse)
		if err := getJSON(st.hc, st.router+"/cluster", c.cluster); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// crossCheck verifies the serving invariants and that the servers counted
// exactly what the benchmark sent.
func (st *stack) crossCheck(path string, c *counters) error {
	var errs bytes.Buffer
	fail := func(format string, a ...any) { fmt.Fprintf(&errs, "; "+format, a...) }
	for i, s := range c.replicas {
		if s.Queries != s.Hits+s.Misses+s.Coalesced+s.Failures {
			fail("replica %d: queries %d != hits %d + misses %d + coalesced %d + failures %d",
				i, s.Queries, s.Hits, s.Misses, s.Coalesced, s.Failures)
		}
		if s.AdmitRequests != s.Admitted+s.Shed {
			fail("replica %d: admit_requests %d != admitted %d + shed %d", i, s.AdmitRequests, s.Admitted, s.Shed)
		}
	}
	t := st.tgt.tally
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failed != 0 {
		fail("%d requests failed", t.failed)
	}
	s := c.sum
	switch {
	case path == "/predict":
		if got, want := int64(s.MemoHits), t.byKind["memo"]; got != want {
			fail("memo_hits %d, benchmark saw %d memoized answers", got, want)
		}
		if got, want := s.MemoSize, len(t.newPairs); got != want {
			fail("memo_size %d, benchmark saw %d pairs answered without the memo", got, want)
		}
		if t.byKind["memo"]+t.byKind["new"] != t.sent {
			fail("predict answers %d != sent %d", t.byKind["memo"]+t.byKind["new"], t.sent)
		}
	case c.cluster == nil:
		if int64(s.Queries) != t.sent {
			fail("queries %d, benchmark sent %d", s.Queries, t.sent)
		}
		for kind, got := range map[string]int{"cache": s.Hits, "measured": s.Misses, "coalesced": s.Coalesced} {
			if int64(got) != t.byKind[kind] {
				fail("%s: server counted %d, benchmark saw %d", kind, got, t.byKind[kind])
			}
		}
	default:
		// The router answers coalesced followers with the leader's body, so
		// each provenance the benchmark saw may exceed the replicas' count,
		// and the excess must add up to the router's coalesced count.
		cl := c.cluster
		if cl.Requests != t.sent {
			fail("router requests %d, benchmark sent %d", cl.Requests, t.sent)
		}
		if cl.Retries != 0 || cl.Exhausted != 0 || cl.NoHealthy != 0 {
			fail("router retries %d exhausted %d no_healthy %d", cl.Retries, cl.Exhausted, cl.NoHealthy)
		}
		if int64(s.Queries) != cl.Requests-cl.Coalesced {
			fail("replica queries %d != router requests %d - coalesced %d", s.Queries, cl.Requests, cl.Coalesced)
		}
		var excess int64
		for kind, got := range map[string]int{"cache": s.Hits, "measured": s.Misses, "coalesced": s.Coalesced} {
			d := t.byKind[kind] - int64(got)
			if d < 0 {
				fail("%s: replicas counted %d, benchmark saw only %d", kind, got, t.byKind[kind])
			}
			excess += d
		}
		if excess != cl.Coalesced {
			fail("answers beyond the replicas' counts %d != router coalesced %d", excess, cl.Coalesced)
		}
	}
	if s.Shed != 0 {
		fail("admission shed %d requests", s.Shed)
	}
	if errs.Len() > 0 {
		return fmt.Errorf("accounting: %s", errs.String()[2:])
	}
	return nil
}
