package main

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"nnlqp/internal/graphhash"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/models"
	"nnlqp/internal/onnx"
	"nnlqp/internal/server"
	"nnlqp/internal/slo"
	"nnlqp/internal/workload"
)

// warmupSeconds is the length of the untimed open-loop phase that precedes
// the timed window; capacitySeconds the length of the closed-loop phase
// that follows it.
const (
	warmupSeconds   = 1.0
	capacitySeconds = 2.0
	// eligibleAfter is how long after its first request a fresh pair may be
	// repeated; recentWindow how many of the most recent eligible pairs a
	// repeat draws from.
	eligibleAfter = 200 * time.Millisecond
	recentWindow  = 512
)

// platforms are the three targets every workload spreads over: a GPU, an
// ASIC, and the CPU library that cannot run HardSigmoid (so some pairs are
// left out during set-up).
var platforms = []string{"gpu-T4-trt7.1-fp32", "hi3559A-nnie11-int8", "cpu-openppl-fp32"}

// spec describes one workload.
type spec struct {
	name string
	path string // "/query" or "/predict"
	// ratePerCore is the open-loop rate in requests/s per core; the rate
	// sent is ratePerCore·nproc. It keeps about a quarter of the cores busy:
	// at half, as first planned, queueing amplified the host's own noise
	// and the latency figures spread too far from run to run. On /predict
	// it is also bounded by the prediction memo (see the capacity phase).
	ratePerCore float64
	families    []string
	// baseGraphs graphs are answered once during set-up and form the initial
	// repeat pool; baseAllPlatforms puts each of them on every platform.
	baseGraphs       int
	baseAllPlatforms bool
	// freshShare of requests ask for a never-seen pair; dupShare of those
	// are sent twice at the same due time.
	freshShare float64
	dupShare   float64
	// freshClass and repeatClass tag the two streams.
	freshClass, repeatClass slo.Class
	routed                  bool // two replicas behind a cache-affinity router
	trainPerPlatform        int  // >0: set-up trains a predictor on this many graphs per platform
}

// specs are the workloads; README.md says why each was chosen.
var specs = []*spec{
	{
		name: "query-repeat",
		path: "/query", ratePerCore: 175, families: models.Families,
		baseGraphs: 240, baseAllPlatforms: true,
		repeatClass: slo.Interactive,
	},
	{
		name: "query-evolving",
		path: "/query", ratePerCore: 75, families: models.Families,
		baseGraphs: 120, freshShare: 1.0 / 3, dupShare: 0.25,
		freshClass: slo.Batch, repeatClass: slo.Interactive, routed: true,
	},
	{
		name: "predict-nas",
		path: "/predict", ratePerCore: 55,
		families:   []string{models.FamilyOFA, models.FamilyNasBench201, models.FamilyMobileNetV3},
		freshShare: 0.75, freshClass: slo.Batch, repeatClass: slo.Batch,
		trainPerPlatform: 40,
	},
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// item is one distinct graph-platform pair the benchmark may send, with its
// request body encoded up front.
type item struct {
	body     []byte
	platform string
	// want is the expected latency_ms: hwsim's measurement for /query, set
	// here; the served predictor's output for /predict, set after the run.
	want float64
}

// request is one scheduled send.
type request struct {
	due   time.Duration // offset from the phase start
	item  int32
	class slo.Class
	fresh bool // the first request for its pair
}

// inputs is everything a workload sends, generated from the seed alone.
type inputs struct {
	spec  *spec
	rate  float64
	items []*item
	base  []int32 // items answered during set-up
	// warm, timed and capacity are the three phases' requests.
	warm, timed, capacity []request
	train                 []trainGraph
	genTime               time.Duration
}

type trainGraph struct {
	g        *onnx.Graph
	platform string
	latency  float64
}

// candidate is one generated graph before de-duplication.
type candidate struct {
	g     *onnx.Graph
	key   graphhash.Key
	model string // base64 of the binary encoding
	err   error
}

// genGraphs builds graphs n0..n0+count-1 of the seed's stream in parallel.
// Graph i depends only on (seed, i), so the result is the same for any
// worker count.
func genGraphs(seed int64, families []string, n0, count, workers int) []candidate {
	out := make([]candidate, count)
	parallel(workers, count, func(k int) {
		i := n0 + k
		fam := families[i%len(families)]
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
		g, err := models.Variant(fam, rng, 1)
		if err != nil {
			out[k].err = err
			return
		}
		g.Name = fmt.Sprintf("%s-%d-%d", fam, seed, i)
		key, err := graphhash.GraphKey(g)
		if err != nil {
			out[k].err = err
			return
		}
		raw, err := g.EncodeBinary()
		if err != nil {
			out[k].err = err
			return
		}
		out[k] = candidate{g: g, key: key, model: base64.StdEncoding.EncodeToString(raw)}
	})
	return out
}

// parallel runs fn(0..n-1) on workers goroutines and waits for them.
func parallel(workers, n int, fn func(i int)) {
	if workers < 1 {
		workers = 1
	}
	var next int64 = -1
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				next++
				i := int(next)
				mu.Unlock()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

func supports(p *hwsim.Platform, g *onnx.Graph) bool {
	for _, n := range g.Nodes {
		if !p.SupportsOp(string(n.Op)) {
			return false
		}
	}
	return true
}

// graphSource hands out distinct graphs (by graph key) from the seed's
// stream, generating more in parallel batches as needed.
type graphSource struct {
	seed     int64
	families []string
	workers  int
	next     int
	buf      []candidate
	seen     map[graphhash.Key]bool
}

func (s *graphSource) take() (candidate, error) {
	for {
		if len(s.buf) == 0 {
			s.buf = genGraphs(s.seed, s.families, s.next, 64, s.workers)
			s.next += 64
		}
		c := s.buf[0]
		s.buf = s.buf[1:]
		if c.err != nil {
			return c, c.err
		}
		if s.seen[c.key] {
			continue
		}
		s.seen[c.key] = true
		return c, nil
	}
}

// makeInputs generates a workload's pairs, bodies, expected answers and
// schedules from the seed.
func makeInputs(sp *spec, seed int64, seconds float64, workers int) (*inputs, error) {
	t0 := time.Now()
	in := &inputs{spec: sp, rate: sp.ratePerCore * float64(workers)}
	src := &graphSource{seed: seed, families: sp.families, workers: workers, seen: map[graphhash.Key]bool{}}
	plats := make([]*hwsim.Platform, len(platforms))
	for i, name := range platforms {
		p, err := hwsim.PlatformByName(name)
		if err != nil {
			return nil, err
		}
		plats[i] = p
	}
	var graphs []*onnx.Graph // index-aligned with in.items, for the oracle
	add := func(c candidate, p *hwsim.Platform) (int32, error) {
		body, err := json.Marshal(server.Request{Model: c.model, Platform: p.Name})
		if err != nil {
			return 0, err
		}
		in.items = append(in.items, &item{body: body, platform: p.Name})
		if sp.path == "/query" {
			graphs = append(graphs, c.g) // /predict answers are checked after the run
		}
		return int32(len(in.items) - 1), nil
	}
	// fresh draws the next unseen graph for the next platform that can run it.
	pi := 0
	fresh := func() (int32, error) {
		for {
			c, err := src.take()
			if err != nil {
				return 0, err
			}
			for k := 0; k < len(plats); k++ {
				p := plats[(pi+k)%len(plats)]
				if supports(p, c.g) {
					pi = (pi + k + 1) % len(plats)
					return add(c, p)
				}
			}
		}
	}
	for n := 0; n < sp.baseGraphs; n++ {
		if !sp.baseAllPlatforms {
			id, err := fresh()
			if err != nil {
				return nil, err
			}
			in.base = append(in.base, id)
			continue
		}
		c, err := src.take()
		if err != nil {
			return nil, err
		}
		for _, p := range plats {
			if supports(p, c.g) {
				id, err := add(c, p)
				if err != nil {
					return nil, err
				}
				in.base = append(in.base, id)
			}
		}
	}

	// Schedules: Poisson arrivals for the fresh and the repeat stream. A
	// repeat draws uniformly from the recentWindow pairs that became
	// eligible last; a fresh pair becomes eligible eligibleAfter its first
	// request, and the base pairs are eligible from the start.
	eligible := append([]int32(nil), in.base...)
	type pending struct {
		at time.Duration
		id int32
	}
	var queue []pending
	var clock time.Duration // offset of the phase start on the continuous timeline
	assign := func(recs []workload.Record, closed bool) ([]request, error) {
		var out []request
		for _, r := range recs {
			due := time.Duration(r.OffsetNS)
			if !closed {
				for len(queue) > 0 && queue[0].at <= clock+due {
					eligible = append(eligible, queue[0].id)
					queue = queue[1:]
				}
			}
			if r.Client == "repeat" && len(eligible) > 0 {
				w := len(eligible)
				if w > recentWindow {
					w = recentWindow
				}
				id := eligible[len(eligible)-1-r.Model%w]
				out = append(out, request{due: due, item: id, class: sp.repeatClass})
				continue
			}
			id, err := fresh()
			if err != nil {
				return nil, err
			}
			cls := sp.freshClass
			if r.Client == "repeat" {
				cls = sp.repeatClass
			}
			out = append(out, request{due: due, item: id, class: cls, fresh: true})
			if r.Model%1000 < int(sp.dupShare*1000) {
				out = append(out, request{due: due, item: id, class: cls})
			}
			if !closed {
				queue = append(queue, pending{at: clock + due + eligibleAfter, id: id})
			}
		}
		return out, nil
	}
	phase := func(dur, rate float64, sub int64, closed bool) ([]request, error) {
		ws := workload.Spec{Seed: seed*10 + sub, DurationSec: dur}
		if rf := rate * (1 - sp.freshShare); rf > 0 {
			ws.Clients = append(ws.Clients, workload.ClientSpec{
				Name: "repeat", Arrival: workload.ArrivalSpec{Rate: rf}, Models: 1 << 30,
			})
		}
		if rf := rate * sp.freshShare; rf > 0 {
			ws.Clients = append(ws.Clients, workload.ClientSpec{
				Name: "fresh", Arrival: workload.ArrivalSpec{Rate: rf}, Models: 1 << 30,
			})
		}
		tr, err := workload.Generate(ws)
		if err != nil {
			return nil, err
		}
		out, err := assign(tr.Records, closed)
		clock += time.Duration(dur * float64(time.Second))
		return out, err
	}
	var err error
	if in.warm, err = phase(warmupSeconds, in.rate, 1, false); err != nil {
		return nil, err
	}
	if in.timed, err = phase(seconds, in.rate, 2, false); err != nil {
		return nil, err
	}
	// The closed-loop list holds three times what the open-loop rate would
	// send. It keeps the /predict pairs (about 3100 at 30 s) well inside
	// the 4096-entry prediction memo, whose 16 shards must not overflow.
	// Clients that finish the list early end the phase early.
	eligible = append(eligible[:0], in.base...)
	for _, r := range append(append([]request(nil), in.warm...), in.timed...) {
		if r.fresh {
			eligible = append(eligible, r.item)
		}
	}
	if in.capacity, err = phase(capacitySeconds, 3*in.rate, 3, true); err != nil {
		return nil, err
	}

	// Oracle for /query: the simulator's measurement of each pair.
	if sp.path == "/query" {
		errs := make([]error, len(in.items))
		parallel(workers, len(in.items), func(i int) {
			p, _ := hwsim.PlatformByName(in.items[i].platform)
			m, err := p.Measure(graphs[i])
			if err != nil {
				errs[i] = err
				return
			}
			in.items[i].want = m.LatencyMS
		})
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("oracle for item %d: %w", i, err)
			}
		}
	}

	// Training graphs for the predictor come from their own stream.
	if sp.trainPerPlatform > 0 {
		ts := &graphSource{seed: seed + 7_777_777, families: models.Families, workers: workers, seen: map[graphhash.Key]bool{}}
		for _, p := range plats {
			for n := 0; n < sp.trainPerPlatform; {
				c, err := ts.take()
				if err != nil {
					return nil, err
				}
				if !supports(p, c.g) {
					continue
				}
				m, err := p.Measure(c.g)
				if err != nil {
					return nil, err
				}
				in.train = append(in.train, trainGraph{g: c.g, platform: p.Name, latency: m.LatencyMS})
				n++
			}
		}
	}
	in.genTime = time.Since(t0)
	return in, nil
}
