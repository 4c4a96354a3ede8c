package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"nnlqp/internal/core"
	"nnlqp/internal/db"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/models"
	"nnlqp/internal/onnx"
)

func newWireCore(t *testing.T, pred *core.Predictor) *Server {
	t.Helper()
	store, err := db.OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return New(store, &hwsim.LocalFarm{Farm: hwsim.NewDefaultFarm(2)}, pred)
}

func wireBody(t *testing.T, g *onnx.Graph, platform string, batch int) []byte {
	t.Helper()
	req, err := encodeRequest(g, platform, batch)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// do sends one request straight into the handler and returns the status and
// the response bytes.
func do(s *Server, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// decodePath runs one request with the wire memo switched off, so it takes
// the path every request took before the memo existed.
func decodePath(s *Server, path string, body []byte) (int, []byte) {
	w := s.wire
	s.wire = nil
	defer func() { s.wire = w }()
	return do(s, path, body)
}

func wireHits(s *Server) uint64 { return s.wire.c.Stats().Hits }

// shapeBreakingGraph validates, but its Conv cannot infer a shape from a
// rank-2 input, so a batch_size override (which re-runs shape inference)
// rejects it.
func shapeBreakingGraph() *onnx.Graph {
	return &onnx.Graph{
		Name:    "flat-conv",
		Inputs:  []onnx.ValueInfo{{Name: "x", Shape: onnx.Shape{1, 8}}},
		Nodes:   []*onnx.Node{{Name: "c", Op: onnx.OpConv, Inputs: []string{"x"}, Attrs: onnx.Attrs{"channels": onnx.IntAttr(4)}}},
		Outputs: []string{"c"},
	}
}

func TestWireMemoAnswersMatchDecodePath(t *testing.T) {
	s := newWireCore(t, trainTinyPredictor(t))
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	cases := []struct {
		name, path string
		body       []byte
		want       string // a field the comparison must cover
	}{
		{"query L1 hit", "/query", wireBody(t, g, hwsim.DatasetPlatform, 0), `"pipeline_seconds"`},
		{"query batch override", "/query", wireBody(t, g, hwsim.DatasetPlatform, 4), `"pipeline_seconds"`},
		{"predict memo hit", "/predict", wireBody(t, g, hwsim.DatasetPlatform, 0), `"generation"`},
	}
	for _, c := range cases {
		if code, out := do(s, c.path, c.body); code != http.StatusOK {
			t.Fatalf("%s: first request -> %d %s", c.name, code, out)
		}
		before := wireHits(s)
		code, memo := do(s, c.path, c.body)
		if code != http.StatusOK || wireHits(s) != before+1 {
			t.Fatalf("%s: repeat -> %d, wire hits %d -> %d", c.name, code, before, wireHits(s))
		}
		code, decoded := decodePath(s, c.path, c.body)
		if code != http.StatusOK {
			t.Fatalf("%s: decode path -> %d %s", c.name, code, decoded)
		}
		if !bytes.Equal(memo, decoded) {
			t.Fatalf("%s: memo path answered\n%s\ndecode path answered\n%s", c.name, memo, decoded)
		}
		if !bytes.Contains(memo, []byte(c.want)) {
			t.Fatalf("%s: answer %s lacks %s", c.name, memo, c.want)
		}
		hit := `"tier":"l1"`
		if c.path == "/predict" {
			hit = `"memoized":true`
		}
		if !bytes.Contains(memo, []byte(hit)) {
			t.Fatalf("%s: answer %s is not a hit (%s)", c.name, memo, hit)
		}
	}
}

func TestWireMemoBodiesNeverAlias(t *testing.T) {
	s := newWireCore(t, nil)
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	type variant struct {
		platform string
		batch    int
	}
	variants := []variant{
		{hwsim.DatasetPlatform, 0}, {hwsim.DatasetPlatform, 4},
		{"gpu-P4-trt7.1-fp32", 0}, {"gpu-P4-trt7.1-fp32", 4},
	}
	first := make([]QueryResponse, len(variants))
	for i, v := range variants {
		code, out := do(s, "/query", wireBody(t, g, v.platform, v.batch))
		if code != http.StatusOK {
			t.Fatalf("%+v -> %d %s", v, code, out)
		}
		if err := json.Unmarshal(out, &first[i]); err != nil {
			t.Fatal(err)
		}
		if first[i].CacheHit {
			t.Fatalf("%+v answered from a cache on its first request: an earlier body aliased it", v)
		}
	}
	for i, v := range variants {
		var r QueryResponse
		_, out := do(s, "/query", wireBody(t, g, v.platform, v.batch))
		if err := json.Unmarshal(out, &r); err != nil {
			t.Fatal(err)
		}
		if !r.CacheHit || r.Tier != "l1" || r.LatencyMS != first[i].LatencyMS {
			t.Fatalf("%+v repeat = %+v, want an L1 hit on %v", v, r, first[i].LatencyMS)
		}
		e, ok := s.wire.get(sha256.Sum256(wireBody(t, g, v.platform, v.batch)))
		if !ok || e.platform != v.platform || (v.batch > 0 && e.batch != v.batch) {
			t.Fatalf("%+v memoized as %+v (found %v)", v, e, ok)
		}
	}
	if n := s.wire.c.Stats().Size; n != len(variants) {
		t.Fatalf("wire memo holds %d bodies, want %d", n, len(variants))
	}
}

func TestWireMemoStoresOnlyDecodedBodies(t *testing.T) {
	s := newWireCore(t, trainTinyPredictor(t))
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	invalid := g.Clone()
	invalid.Outputs = []string{"no-such-tensor"}
	bad := map[string][]byte{
		"json":             []byte(`{"model":`),
		"base64":           []byte(`{"model":"!!!","platform":"` + hwsim.DatasetPlatform + `"}`),
		"decode":           []byte(`{"model":"aGVsbG8=","platform":"` + hwsim.DatasetPlatform + `"}`),
		"validate":         wireBody(t, invalid, hwsim.DatasetPlatform, 0),
		"shape inference":  wireBody(t, shapeBreakingGraph(), hwsim.DatasetPlatform, 2),
		"unknown platform": wireBody(t, g, "quantum-chip", 0),
	}
	for name, body := range bad {
		for _, path := range []string{"/query", "/predict"} {
			for i := 0; i < 2; i++ {
				if code, out := do(s, path, body); code != http.StatusBadRequest {
					t.Fatalf("%s %s -> %d %s, want 400", name, path, code, out)
				}
			}
		}
		if n := s.wire.c.Stats().Size; n != 0 {
			t.Fatalf("after %s bodies the wire memo holds %d entries", name, n)
		}
	}
	if st := s.wire.c.Stats(); st.Hits != 0 {
		t.Fatalf("failing bodies hit the wire memo: %+v", st)
	}
}

func TestWireMemoRepredictsAfterHotSwap(t *testing.T) {
	s := newWireCore(t, trainTinyPredictor(t))
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	body := wireBody(t, g, hwsim.DatasetPlatform, 0)
	predict := func() PredictResponse {
		t.Helper()
		code, out := do(s, "/predict", body)
		if code != http.StatusOK {
			t.Fatalf("/predict -> %d %s", code, out)
		}
		var r PredictResponse
		if err := json.Unmarshal(out, &r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1 := predict()
	if r2 := predict(); !r2.Memoized || r2.Generation != r1.Generation {
		t.Fatalf("repeat = %+v, want memoized under generation %d", r2, r1.Generation)
	}
	next := trainTinyPredictor(t)
	s.SetPredictor(next)
	want, err := next.Predict(g.Clone(), hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := wireHits(s), s.memo.Stats().Misses
	r3 := predict()
	if wireHits(s) != hits+1 {
		t.Fatal("the post-swap request did not take the wire memo")
	}
	if m := s.memo.Stats().Misses; m != misses+1 {
		t.Fatalf("the post-swap request probed the prediction memo %d times, want once", m-misses)
	}
	if r3.Memoized || r3.Generation != next.Generation() || r3.Generation == r1.Generation || r3.LatencyMS != want {
		t.Fatalf("after the swap = %+v, want a fresh %v under generation %d", r3, want, next.Generation())
	}
	if r4 := predict(); !r4.Memoized || r4.Generation != r3.Generation || r4.LatencyMS != want {
		t.Fatalf("post-swap repeat = %+v, want memoized %v", r4, want)
	}
}

// TestWireMemoKeepsStatsExact replays one request sequence — misses,
// repeats, overrides, failures, predictions — through a core with the wire
// memo and a core without it. Every /stats counter must agree.
func TestWireMemoKeepsStatsExact(t *testing.T) {
	pred := trainTinyPredictor(t)
	on, off := newWireCore(t, pred), newWireCore(t, pred)
	off.wire = nil
	sq := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	mb := models.BuildMobileNetV3(models.BaseMobileNetV3(1))
	type step struct {
		path string
		body []byte
	}
	q := func(g *onnx.Graph, platform string, batch int) step {
		return step{"/query", wireBody(t, g, platform, batch)}
	}
	p := func(g *onnx.Graph, platform string, batch int) step {
		return step{"/predict", wireBody(t, g, platform, batch)}
	}
	var seq []step
	for i := 0; i < 3; i++ {
		seq = append(seq,
			q(sq, hwsim.DatasetPlatform, 0), q(sq, hwsim.DatasetPlatform, 4),
			q(sq, "gpu-P4-trt7.1-fp32", 0), q(sq, "quantum-chip", 0),
			q(mb, "cpu-openppl-fp32", 0), q(mb, hwsim.DatasetPlatform, 0),
			step{"/query", []byte(`{"model":`)},
			p(sq, hwsim.DatasetPlatform, 0), p(mb, hwsim.DatasetPlatform, 2),
			p(sq, "quantum-chip", 0),
		)
	}
	for i, st := range seq {
		c1, out1 := do(on, st.path, st.body)
		c2, out2 := do(off, st.path, st.body)
		if c1 != c2 || !bytes.Equal(out1, out2) {
			t.Fatalf("step %d %s: with memo %d %s, without %d %s", i, st.path, c1, out1, c2, out2)
		}
	}
	if wireHits(on) == 0 {
		t.Fatal("the sequence never took the wire memo")
	}
	stats := func(s *Server) StatsResponse {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var st StatsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		st.DeviceWaitSec, st.DBSnapshotAgeSec = 0, 0
		return st
	}
	if a, b := stats(on), stats(off); !reflect.DeepEqual(a, b) {
		t.Fatalf("/stats with the wire memo\n%+v\nwithout it\n%+v", a, b)
	}
}
