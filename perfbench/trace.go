package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nnlqp/internal/core"
	"nnlqp/internal/db"
	"nnlqp/internal/feats"
	"nnlqp/internal/graphhash"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/onnx"
	"nnlqp/internal/query"
	"nnlqp/internal/server"
	"nnlqp/internal/slo"
)

// tracer records spans in memory, one lane per goroutine so that recording
// takes no lock; the lanes are merged when the run ends. A nil *tracer, or
// one that is not on, records nothing.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	lanes map[int64]*lane
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

// lane is one goroutine's spans and its stack of open spans.
type lane struct {
	t0    time.Time
	req   int32
	spans []span
	open  []int32
}

func newTracer() *tracer { return &tracer{t0: time.Now(), lanes: map[int64]*lane{}} }

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 123 [running]:"). Storage calls carry no context, so this is
// how a span finds the request its goroutine is serving.
func goid() int64 {
	var b [32]byte
	n := runtime.Stack(b[:], false)
	f := bytes.Fields(b[:n])
	if len(f) < 2 {
		return 0
	}
	id, _ := strconv.ParseInt(string(f[1]), 10, 64)
	return id
}

func (t *tracer) lane() *lane {
	id := goid()
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.lanes[id]
	if l == nil {
		l = &lane{t0: t.t0}
		t.lanes[id] = l
	}
	return l
}

// begin opens a span under the goroutine's innermost open span.
func (l *lane) begin(name string) {
	parent := int32(-1)
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{name: name, req: l.req, parent: parent, start: time.Since(l.t0)})
	l.open = append(l.open, int32(len(l.spans)-1))
}

// end closes the innermost open span.
func (l *lane) end() {
	n := len(l.open) - 1
	l.spans[l.open[n]].end = time.Since(l.t0)
	l.open = l.open[:n]
}

// timed runs fn inside a span when tracing, else just runs it.
func (t *tracer) timed(name string, fn func()) {
	if !t.active() {
		fn()
		return
	}
	l := t.lane()
	l.begin(name)
	fn()
	l.end()
}

// merged returns every lane's spans in one slice, parents re-indexed.
func (t *tracer) merged() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.lanes {
		base := int32(len(out))
		for _, s := range l.spans {
			if s.parent >= 0 {
				s.parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// tracedStore times the query path's calls into the durable store. It
// forwards the lean point reads too, so query.System keeps the same read
// path it has over a bare *db.Store.
type tracedStore struct {
	s  *db.Store
	tr *tracer
}

func (t tracedStore) InsertPlatform(name, hardware, software, dataType string) (r *db.PlatformRecord, err error) {
	t.tr.timed("db.commit", func() { r, err = t.s.InsertPlatform(name, hardware, software, dataType) })
	return
}

func (t tracedStore) FindModelByHash(key graphhash.Key) (r *db.ModelRecord, ok bool, err error) {
	t.tr.timed("db.probe", func() { r, ok, err = t.s.FindModelByHash(key) })
	return
}

func (t tracedStore) FindLatency(modelID, platformID uint64, batch int) (r *db.LatencyRecord, ok bool, err error) {
	t.tr.timed("db.probe", func() { r, ok, err = t.s.FindLatency(modelID, platformID, batch) })
	return
}

func (t tracedStore) RecordMeasurement(g *onnx.Graph, platformID uint64, rec db.LatencyRecord) (id uint64, v float64, err error) {
	t.tr.timed("db.commit", func() { id, v, err = t.s.RecordMeasurement(g, platformID, rec) })
	return
}

func (t tracedStore) InsertModel(g *onnx.Graph) (r *db.ModelRecord, err error) {
	t.tr.timed("db.commit", func() { r, err = t.s.InsertModel(g) })
	return
}

func (t tracedStore) InsertLatency(rec db.LatencyRecord) (id uint64, err error) {
	t.tr.timed("db.commit", func() { id, err = t.s.InsertLatency(rec) })
	return
}

func (t tracedStore) Counts() (int, int, int) { return t.s.Counts() }

func (t tracedStore) ModelIDByHash(key graphhash.Key) (id uint64, ok bool, err error) {
	t.tr.timed("db.probe", func() { id, ok, err = t.s.ModelIDByHash(key) })
	return
}

func (t tracedStore) LatencyValue(modelID, platformID uint64, batch int) (r db.LatencyRecord, ok bool, err error) {
	t.tr.timed("db.probe", func() { r, ok, err = t.s.LatencyValue(modelID, platformID, batch) })
	return
}

func (t tracedStore) PlatformIDByName(name string) (id uint64, ok bool, err error) {
	t.tr.timed("db.probe", func() { id, ok, err = t.s.PlatformIDByName(name) })
	return
}

// tracedFarm times the query path's calls into the device farm.
type tracedFarm struct {
	f  query.Measurer
	tr *tracer
}

func (t tracedFarm) Measure(ctx context.Context, platform string, g *onnx.Graph, holder string) (r *hwsim.MeasureResult, err error) {
	t.tr.timed("hwsim.measure", func() { r, err = t.f.Measure(ctx, platform, g, holder) })
	return
}

// layered is a serving stack without HTTP: the benchmark calls each layer's
// public functions itself, in the order the server's handler does.
type layered struct {
	in    *inputs
	tr    *tracer
	store *db.Store
	dir   string
	sys   *query.System
	admit *server.Admission
	pred  *core.Predictor
	memo  *core.PredictMemo
	tgt   *target
	reqs  atomic.Int32 // request ids for spans
}

func newLayered(in *inputs, weights []byte, tr *tracer, workers int, tmpRoot string) (ls *layered, err error) {
	sp := in.spec
	ls = &layered{in: in, tr: tr}
	defer func() {
		if err != nil {
			ls.close()
		}
	}()
	if sp.routed {
		if ls.dir, err = os.MkdirTemp(tmpRoot, "db-"); err != nil {
			return ls, err
		}
		ls.admit = server.NewAdmission(server.AdmissionConfig{Rate: 4 * in.rate, Burst: in.rate, QueueCap: 256})
	}
	if ls.store, err = db.OpenStore(ls.dir); err != nil {
		return ls, err
	}
	farm := server.NewLocalMeasurementRole(devicesPerPlatform).Farm()
	ls.sys = query.NewWith(tracedStore{ls.store, tr}, tracedFarm{farm, tr}, query.NewCache(0, 0))
	ls.tgt = &target{in: in, answered: make([]atomic.Bool, len(in.items)), tally: newTally()}
	if weights != nil {
		if ls.pred, err = core.Load(bytes.NewReader(weights)); err != nil {
			return ls, err
		}
		ls.memo = core.NewPredictMemo(0)
		ls.tgt.gen = ls.pred.Generation()
	}
	if err := answerBase(in, workers, slo.Batch, ls.serve); err != nil {
		return ls, fmt.Errorf("layered %w", err)
	}
	return ls, nil
}

func (ls *layered) close() {
	if ls.store != nil {
		_ = ls.store.Close()
	}
	if ls.dir != "" {
		_ = os.RemoveAll(ls.dir)
	}
}

// serve answers one request through the layers and checks the answer.
func (ls *layered) serve(q request, t0 time.Time) outcome {
	o := outcome{sent: time.Since(t0), prior: ls.tgt.answered[q.item].Load(), status: http.StatusOK}
	var l *lane
	if ls.tr.active() {
		l = ls.tr.lane()
		l.req = ls.reqs.Add(1)
		l.begin("request")
	}
	o.ans, o.err = ls.answer(q)
	if l != nil {
		l.end()
	}
	o.done = time.Since(t0)
	ls.tgt.judge(q, &o)
	return o
}

func (ls *layered) answer(q request) (answer, error) {
	tr := ls.tr
	var a answer
	var req server.Request
	var err error
	tr.timed("server.json_decode", func() { err = json.Unmarshal(ls.in.items[q.item].body, &req) })
	if err != nil {
		return a, err
	}
	var g *onnx.Graph
	tr.timed("onnx.decode", func() {
		var raw []byte
		if raw, err = base64.StdEncoding.DecodeString(req.Model); err == nil {
			g, err = onnx.DecodeBinary(raw)
		}
	})
	if err != nil {
		return a, err
	}
	tr.timed("onnx.validate", func() { err = g.Validate() })
	if err != nil {
		return a, err
	}
	var key graphhash.Key
	tr.timed("graphhash.key", func() { key, err = graphhash.GraphKey(g) })
	if err != nil {
		return a, err
	}
	ctx := slo.WithContext(context.Background(), q.class)
	var body bytes.Buffer
	if ls.in.spec.path == "/query" {
		if ls.admit != nil {
			tr.timed("server.admit", func() { err = ls.admit.Admit(ctx, q.class) })
			if err != nil {
				return a, err
			}
		}
		var res *query.Result
		tr.timed("query.query", func() { res, err = ls.sys.Query(ctx, g, req.Platform) })
		if err != nil {
			return a, err
		}
		a = answer{LatencyMS: res.LatencyMS, Provenance: res.Provenance, Tier: res.Tier,
			Degraded: res.Degraded, StoreFailed: res.StoreFailed}
		tr.timed("server.json_encode", func() {
			err = json.NewEncoder(&body).Encode(server.QueryResponse{
				LatencyMS: res.LatencyMS, CacheHit: res.Hit, Coalesced: res.Coalesced,
				Degraded: res.Degraded, Provenance: res.Provenance, Tier: res.Tier,
				StoreFailed: res.StoreFailed, Generation: res.Generation, PipelineSeconds: res.SimSeconds,
			})
		})
		return a, err
	}
	gen := ls.tgt.gen
	var v float64
	var hit bool
	tr.timed("core.memo_get", func() { v, hit = ls.memo.Get(uint64(key), req.Platform, gen) })
	if !hit {
		tr.timed("feats.extract", func() { _, err = feats.ExtractCached(g, ls.pred.Config().ElemSize) })
		if err == nil {
			tr.timed("core.predict", func() { v, err = ls.pred.Predict(g, req.Platform) })
		}
		if err != nil {
			return a, err
		}
		tr.timed("core.memo_put", func() { ls.memo.Put(uint64(key), req.Platform, gen, v) })
	}
	a = answer{LatencyMS: v, Memoized: hit, Generation: gen}
	tr.timed("server.json_encode", func() {
		err = json.NewEncoder(&body).Encode(server.PredictResponse{LatencyMS: v, Memoized: hit, Generation: gen})
	})
	return a, err
}

// replayLayered runs the warm-up and the replayed schedule through a fresh
// layered stack and returns the replayed outcomes.
func replayLayered(rep *report, weights []byte, tr *tracer, tmpRoot string) ([]outcome, error) {
	in := rep.in
	ls, err := newLayered(in, weights, tr, rep.nproc, tmpRoot)
	if err != nil {
		return nil, err
	}
	defer ls.close()
	warm, _ := openLoop(in.warm, rep.nproc, ls.serve)
	// Only the timed requests are traced.
	if tr != nil {
		tr.on.Store(true)
	}
	timed, _ := openLoop(replayed(in), rep.nproc, ls.serve)
	if tr != nil {
		tr.on.Store(false)
	}
	if in.spec.path == "/predict" {
		checkValues(in, warm, timed)
	}
	if err := firstBad("layered replay", warm, timed); err != nil {
		return nil, err
	}
	return timed, nil
}

// replaySeconds bounds the replays of a traced run to the start of the timed
// schedule, which keeps a traced run to about a minute.
const replaySeconds = 10

// replayed is the part of the timed schedule the replays send.
func replayed(in *inputs) []request {
	n := sort.Search(len(in.timed), func(i int) bool { return in.timed[i].due >= replaySeconds*time.Second })
	return in.timed[:n]
}

// checkValues marks /predict answers that differ from the oracle values
// checkPredictions stored on the items.
func checkValues(in *inputs, warm, timed []outcome) {
	for p, outs := range [][]outcome{warm, timed} {
		reqs := [][]request{in.warm, in.timed}[p]
		for i := range outs {
			if want := in.items[reqs[i].item].want; outs[i].bad == "" && outs[i].ans.LatencyMS != want {
				outs[i].bad = fmt.Sprintf("latency_ms %v, want %v", outs[i].ans.LatencyMS, want)
			}
		}
	}
}

func firstBad(phase string, phases ...[]outcome) error {
	for _, outs := range phases {
		for i := range outs {
			if outs[i].bad != "" {
				return fmt.Errorf("%s: %s", phase, outs[i].bad)
			}
		}
	}
	return nil
}

// replayHandler sends the warm-up and replayed requests on their schedule
// straight into a fresh serving core's http.Handler on a recorder, and
// returns the handler times of the replayed requests in µs.
func replayHandler(rep *report, tmpRoot string) ([]float64, error) {
	in := rep.in
	st, err := setUp(in, rep.nproc, tmpRoot, true)
	if err != nil {
		return nil, err
	}
	defer st.close()
	h := st.cores[0].Handler()
	var mu sync.Mutex
	var us []float64
	serve := func(timed bool) func(q request, t0 time.Time) outcome {
		return func(q request, t0 time.Time) outcome {
			req := httptest.NewRequest(http.MethodPost, in.spec.path, bytes.NewReader(in.items[q.item].body))
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(slo.Header, string(q.class))
			rec := httptest.NewRecorder()
			o := outcome{prior: st.tgt.answered[q.item].Load()}
			start := time.Now()
			h.ServeHTTP(rec, req)
			d := time.Since(start)
			o.status = rec.Code
			if rec.Code != http.StatusOK {
				o.bad = fmt.Sprintf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
			} else {
				o.err = json.Unmarshal(rec.Body.Bytes(), &o.ans)
			}
			st.tgt.judge(q, &o)
			if timed {
				mu.Lock()
				us = append(us, float64(d.Nanoseconds())/1e3)
				mu.Unlock()
			}
			return o
		}
	}
	// On schedule, not back to back: a closed loop would outrun the
	// admission rate and time the admission queue instead of the handler.
	warm, _ := openLoop(in.warm, rep.nproc, serve(false))
	timed, _ := openLoop(replayed(in), rep.nproc, serve(true))
	if in.spec.path == "/predict" {
		checkValues(in, warm, timed)
	}
	return us, firstBad("handler replay", warm, timed)
}

// hopProbe measures the router hop on a routed stack: the same cached pairs
// sent through the router and straight to one replica, alternately, one at a
// time. It returns the p50 difference in µs.
func hopProbe(in *inputs, st *stack, n int) (float64, error) {
	if st.router == "" {
		return 0, nil
	}
	ids := in.base
	if len(ids) > n {
		ids = ids[:n]
	}
	post := func(url string, id int32) (time.Duration, error) {
		it := in.items[id]
		t0 := time.Now()
		resp, err := st.hc.Post(url, "application/json", bytes.NewReader(it.body))
		if err != nil {
			return 0, err
		}
		var a answer
		err = json.NewDecoder(resp.Body).Decode(&a)
		resp.Body.Close()
		d := time.Since(t0)
		if err == nil && (resp.StatusCode != http.StatusOK || a.LatencyMS != it.want) {
			err = fmt.Errorf("hop probe: status %d latency_ms %v, want %v", resp.StatusCode, a.LatencyMS, it.want)
		}
		return d, err
	}
	direct := st.replicas[0] + in.spec.path
	routed := st.router + in.spec.path
	// Pairs the other replica owns reach replica 0's L1 on their first direct
	// request; only later ones are timed.
	for _, id := range ids {
		if _, err := post(direct, id); err != nil {
			return 0, err
		}
	}
	var r, d []float64
	for _, id := range ids {
		tr, err := post(routed, id)
		if err != nil {
			return 0, err
		}
		td, err := post(direct, id)
		if err != nil {
			return 0, err
		}
		r = append(r, float64(tr.Nanoseconds())/1e3)
		d = append(d, float64(td.Nanoseconds())/1e3)
	}
	return median(r) - median(d), nil
}

// walProbe records n fresh measurements one at a time into an empty durable
// store and returns the WAL bytes written per measurement.
func walProbe(in *inputs, tmpRoot string, n int) (float64, error) {
	dir, err := os.MkdirTemp(tmpRoot, "wal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	store, err := db.OpenStore(dir)
	if err != nil {
		return 0, err
	}
	defer store.Close()
	p, err := hwsim.PlatformByName(platforms[0])
	if err != nil {
		return 0, err
	}
	prec, err := store.InsertPlatform(p.Name, p.Hardware, p.Software, p.DType)
	if err != nil {
		return 0, err
	}
	before := store.EngineStats().WALBytes
	done := 0
	for _, it := range in.items {
		if done == n {
			break
		}
		g, _, err := decodeBody(it.body)
		if err != nil {
			return 0, err
		}
		if _, _, err := store.RecordMeasurement(g, prec.ID, db.LatencyRecord{BatchSize: 1, LatencyMS: it.want, Runs: 50}); err != nil {
			return 0, err
		}
		done++
	}
	es := store.EngineStats()
	if es.Checkpoints != 0 {
		return 0, fmt.Errorf("wal probe: a checkpoint truncated the WAL")
	}
	return float64(es.WALBytes-before) / float64(done), nil
}

// decodeAllocs is the mean number of allocations one base64 + DecodeBinary
// of a timed request's model makes, over up to n distinct bodies.
func decodeAllocs(in *inputs, n int) (float64, error) {
	var models []string
	seen := map[int32]bool{}
	for _, q := range in.timed {
		if len(models) == n {
			break
		}
		if !seen[q.item] {
			seen[q.item] = true
			var req server.Request
			if err := json.Unmarshal(in.items[q.item].body, &req); err != nil {
				return 0, err
			}
			models = append(models, req.Model)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, m := range models {
		raw, err := base64.StdEncoding.DecodeString(m)
		if err != nil {
			return 0, err
		}
		if _, err := onnx.DecodeBinary(raw); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(models)), nil
}

// writeSpans saves the spans as JSON lines, times in ns from the start of
// the traced replay.
func writeSpans(spans []span, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, "{\"name\":%q,\"req\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.name, s.req, s.parent, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats groups span self times (µs) by span name.
func spanStats(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := map[string][]float64{}
	for i, s := range spans {
		out[s.name] = append(out[s.name], float64(self[i].Nanoseconds())/1e3)
	}
	return out
}

func runTraced(rep *report, tmpRoot string) (*result, error) {
	in, nproc := rep.in, rep.nproc
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	// 1. An untraced run over HTTP: counters, lag, runtime cost, router hop.
	st, err := setUp(in, nproc, tmpRoot, false)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	e, err := drive(rep, st)
	if err != nil {
		st.close()
		return nil, err
	}
	hop, err := hopProbe(in, st, 200)
	var weights []byte
	if err == nil && st.pred != nil {
		var buf bytes.Buffer
		err = st.pred.Save(&buf)
		weights = buf.Bytes()
	}
	fit := st.fit
	st.close()
	if err != nil {
		return nil, err
	}
	rep.phases(e.phases)
	rep.failures(e)
	// Ratios cover the traffic after set-up; counts cover the whole run.
	c, s, s0 := e.ctr, e.ctr.sum, e.ctr0.sum
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	set("workload.gen_lag_p99_ms", "ms", e.lag.P99.Seconds()*1e3)
	set("server.shed", "count", float64(s.Shed))
	set("query.l1_hit_ratio", "ratio", ratio(float64(s.L1Hits-s0.L1Hits), float64(s.Queries-s0.Queries)))
	set("query.coalesced", "count", float64(s.Coalesced))
	set("query.failures", "count", float64(s.Failures))
	set("hwsim.device_wait_ms", "ms", ratio(s.DeviceWaitSec*1e3, float64(s.Misses)))
	set("core.memo_hit_ratio", "ratio", 0)
	if in.spec.path == "/predict" {
		t := st.tgt.tally
		set("core.memo_hit_ratio", "ratio", ratio(float64(t.byKind["memo"]), float64(t.sent)))
	}
	set("train.fit_s", "s", fit.Seconds())
	set("go.alloc_kb_per_req", "KB", e.allocKBPerReq)
	set("go.gc_per_kreq", "count", e.gcPerKReq)
	set("db.fsyncs_per_measurement", "count", 0)
	set("db.records_per_batch", "count", 0)
	set("db.wal_bytes_per_measurement", "B", 0)
	set("cluster.hop_p50_us", "us", hop)
	set("cluster.coalesced", "count", 0)
	set("cluster.retries", "count", 0)
	set("cluster.l1_hit_ratio", "ratio", 0)
	if in.spec.routed {
		es := c.engine
		set("db.fsyncs_per_measurement", "count", ratio(float64(es.Fsyncs), float64(s.Misses)))
		set("db.records_per_batch", "count", ratio(float64(es.CommitRecords), float64(es.CommitBatches)))
		wal, err := walProbe(in, tmpRoot, 50)
		if err != nil {
			return nil, err
		}
		set("db.wal_bytes_per_measurement", "B", wal)
		set("cluster.coalesced", "count", float64(c.cluster.Coalesced))
		set("cluster.retries", "count", float64(c.cluster.Retries))
		set("cluster.l1_hit_ratio", "ratio", ratio(float64(s.L1Hits-s0.L1Hits), float64(s.Queries-s0.Queries)))
	}

	// 2. The same schedule into a fresh core's http.Handler.
	handler, err := replayHandler(rep, tmpRoot)
	if err != nil {
		return nil, err
	}
	hp50 := quantile(handler, 0.5)
	set("server.handler_p50_us", "us", hp50)
	set("server.handler_p99_us", "us", quantile(handler, 0.99))
	set("http.roundtrip_p50_us", "us", e.p50ms*1e3-hp50)

	// 3. The schedule through the layers, untraced and then traced; the
	// ratio of their median service times (send to answer, which leaves out
	// the wait for a free sender) is the tracing overhead.
	p50 := func(outs []outcome) float64 {
		svc := make([]float64, len(outs))
		for i := range outs {
			svc[i] = (outs[i].done - outs[i].sent).Seconds() * 1e3
		}
		return quantile(svc, 0.5)
	}
	plain, err := replayLayered(rep, weights, nil, tmpRoot)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := replayLayered(rep, weights, tr, tmpRoot)
	if err != nil {
		return nil, err
	}
	set("trace.overhead_ratio", "ratio", ratio(p50(traced), p50(plain)))
	spans := tr.merged()
	if err := writeSpans(spans, filepath.Join(tmpRoot, "..", "spans", fmt.Sprintf("%s-seed%d.jsonl", in.spec.name, rep.seed))); err != nil {
		return nil, err
	}
	byName := spanStats(spans)
	p := func(name string, q float64) float64 { return quantile(byName[name], q) }
	set("server.json_decode_us", "us", p("server.json_decode", 0.5))
	set("server.json_encode_us", "us", p("server.json_encode", 0.5))
	set("server.admit_wait_p99_us", "us", p("server.admit", 0.99))
	set("onnx.decode_us", "us", p("onnx.decode", 0.5))
	set("onnx.validate_us", "us", p("onnx.validate", 0.5))
	set("graphhash.key_us", "us", p("graphhash.key", 0.5))
	set("query.self_us", "us", p("query.query", 0.5))
	set("db.probe_us", "us", p("db.probe", 0.5))
	set("db.commit_us", "us", p("db.commit", 0.5))
	set("hwsim.measure_us", "us", p("hwsim.measure", 0.5))
	set("feats.extract_us", "us", p("feats.extract", 0.5))
	set("core.predict_new_us", "us", p("core.predict", 0.5))
	// A repeat's whole cost in core is the memo probe that answers it: the
	// memo_get spans of requests that predicted nothing.
	predicted := map[int32]bool{}
	for _, sp := range spans {
		if sp.name == "core.predict" {
			predicted[sp.parent] = true
		}
	}
	var repeatUS []float64
	for _, sp := range spans {
		if sp.name == "core.memo_get" && !predicted[sp.parent] {
			repeatUS = append(repeatUS, float64((sp.end-sp.start).Nanoseconds())/1e3)
		}
	}
	set("core.predict_repeat_us", "us", quantile(repeatUS, 0.5))
	allocs, err := decodeAllocs(in, 200)
	if err != nil {
		return nil, err
	}
	set("onnx.decode_allocs", "count", allocs)

	rep.printf("  layered replay service p50 %.3f ms untraced, %.3f ms traced; %d spans\n", p50(plain), p50(traced), len(spans))
	rep.metrics(m)
	return &result{Correct: e.correct(), Attempted: e.attempted, Failed: e.failed, Metrics: m}, nil
}
