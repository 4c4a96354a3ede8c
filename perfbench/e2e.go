package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"nnlqp/internal/core"
	"nnlqp/internal/onnx"
	"nnlqp/internal/server"
)

// phaseCount is one phase's request counts.
type phaseCount struct {
	name             string
	sent, ok, failed int
	wall             time.Duration
}

func countPhase(name string, outs []outcome, wall time.Duration) phaseCount {
	p := phaseCount{name: name, sent: len(outs), wall: wall}
	for i := range outs {
		if outs[i].bad == "" {
			p.ok++
		} else {
			p.failed++
		}
	}
	return p
}

// e2e is what one untraced run measured.
type e2e struct {
	attempted, failed int64
	phases            []phaseCount
	timed             []outcome
	lag               lagSummary
	ctr0, ctr         *counters // before the warm-up and after the last phase
	firstErr          string
	accountErr        error // a broken serving invariant or counter mismatch

	p50ms, goodput, capacity, cpuMS, heapMB float64
	allocKBPerReq, gcPerKReq                float64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// drive runs the warm-up, the timed open-loop window and the closed-loop
// capacity phase against st, checks every answer and the servers' counters,
// and computes the end-to-end metrics. A wrong answer or a counter mismatch
// is recorded in e, not returned as an error.
func drive(rep *report, st *stack) (*e2e, error) {
	in, nproc := rep.in, rep.nproc
	tgt := st.tgt
	e := &e2e{}
	setupN := len(in.base)
	e.phases = append(e.phases, phaseCount{name: "set-up", sent: setupN, ok: setupN})
	var err error
	if e.ctr0, err = st.counters(); err != nil {
		return nil, fmt.Errorf("counters: %w", err)
	}

	warm, wall := openLoop(in.warm, nproc, tgt.send)
	e.phases = append(e.phases, countPhase("warm-up", warm, wall))

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	timed, wall := openLoop(in.timed, nproc, tgt.send)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	e.phases = append(e.phases, countPhase("timed", timed, wall))
	e.timed = timed

	capOuts, capWall := closedLoop(in.capacity, nproc, time.Duration(capacitySeconds*float64(time.Second)), tgt.send)
	e.phases = append(e.phases, countPhase("capacity", capOuts, capWall))

	if in.spec.path == "/predict" {
		if err := checkPredictions(in, st, nproc, warm, timed, capOuts); err != nil {
			return nil, err
		}
		// Re-count: the value check may have failed some requests.
		e.phases[1] = countPhase("warm-up", warm, e.phases[1].wall)
		e.phases[2] = countPhase("timed", timed, e.phases[2].wall)
		e.phases[3] = countPhase("capacity", capOuts, capWall)
	}

	if e.ctr, err = st.counters(); err != nil {
		return nil, fmt.Errorf("counters: %w", err)
	}
	e.accountErr = st.crossCheck(in.spec.path, e.ctr)

	for _, p := range e.phases {
		e.attempted += int64(p.sent)
		e.failed += int64(p.failed)
	}
	for _, outs := range [][]outcome{warm, timed, capOuts} {
		for i := range outs {
			if outs[i].bad != "" && e.firstErr == "" {
				e.firstErr = outs[i].bad
			}
		}
	}

	var lats []float64
	var good, completed int
	due := make([]time.Duration, len(timed))
	sent := make([]time.Duration, len(timed))
	for i := range timed {
		o, q := &timed[i], in.timed[i]
		due[i], sent[i] = q.due, o.sent
		if o.status == 200 {
			completed++
		}
		if o.bad != "" {
			continue
		}
		l := o.latency(q)
		lats = append(lats, l.Seconds()*1e3)
		if l <= q.class.Deadline() {
			good++
		}
	}
	e.lag = lateness(due, sent)
	if q, ok := tailQuantile(len(lats)); !ok || q < 0.99 {
		return nil, fmt.Errorf("%d correct timed answers cannot support a p99; lengthen --seconds", len(lats))
	}
	e.p50ms = quantile(lats, 0.5)
	e.goodput = float64(good) / rep.seconds
	capOK := 0
	for i := range capOuts {
		if capOuts[i].bad == "" {
			capOK++
		}
	}
	e.capacity = float64(capOK) / capWall.Seconds()
	if completed > 0 {
		e.cpuMS = cpu.Seconds() * 1e3 / float64(completed)
		e.allocKBPerReq = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(completed)
		e.gcPerKReq = float64(ms1.NumGC-ms0.NumGC) * 1000 / float64(completed)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	return e, nil
}

// decodeBody turns a request body back into the graph and platform it asks
// about, the way the server does.
func decodeBody(body []byte) (*onnx.Graph, string, error) {
	var req server.Request
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, "", err
	}
	raw, err := base64.StdEncoding.DecodeString(req.Model)
	if err != nil {
		return nil, "", err
	}
	g, err := onnx.DecodeBinary(raw)
	return g, req.Platform, err
}

// checkPredictions compares every /predict answer with what a copy of the
// served weights predicts for the same graph. The copy has its own plan
// cache, so computing the oracle never warms the served predictor.
func checkPredictions(in *inputs, st *stack, workers int, phases ...[]outcome) error {
	var buf bytes.Buffer
	if err := st.pred.Save(&buf); err != nil {
		return err
	}
	oracle, err := core.Load(&buf)
	if err != nil {
		return err
	}
	var ids []int32
	seen := map[int32]bool{}
	reqs := [][]request{in.warm, in.timed, in.capacity}
	for p, outs := range phases {
		for i := range outs {
			if id := reqs[p][i].item; !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	errs := make([]error, len(ids))
	parallel(workers, len(ids), func(k int) {
		it := in.items[ids[k]]
		g, plat, err := decodeBody(it.body)
		if err == nil {
			it.want, err = oracle.Predict(g, plat)
		}
		errs[k] = err
	})
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("oracle prediction: %w", err)
		}
	}
	t := st.tgt.tally
	for p, outs := range phases {
		for i := range outs {
			o := &outs[i]
			if want := in.items[reqs[p][i].item].want; o.bad == "" && o.ans.LatencyMS != want {
				o.bad = fmt.Sprintf("latency_ms %v, want %v", o.ans.LatencyMS, want)
				t.mu.Lock()
				t.failed++
				t.mu.Unlock()
			}
		}
	}
	return nil
}

// correct reports whether every answer and every counter checked out.
func (e *e2e) correct() bool { return e.failed == 0 && e.accountErr == nil }
