package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"nnlqp/internal/graphhash"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/lru"
	"nnlqp/internal/onnx"
)

// The request fast path (DESIGN.md §16). Decoding a /query or /predict body
// — JSON, base64, binary decode, validation, structural hash — costs far more
// than the L1 or prediction-memo probe it feeds, and a fresh graph per
// request means the graph-object memos never help over HTTP. The wire memo
// maps the SHA-256 of a whole request body to what decoding it yielded, so a
// byte-identical repeat goes straight to the probe without building a graph.

// wireDigest is the content address of one request body.
type wireDigest = [sha256.Size]byte

// wireEntry is what decoding one body yields, minus the graph itself: the
// L1 and prediction-memo keys and the node count that prices an L1 hit.
type wireEntry struct {
	key      graphhash.Key
	platform string // hwsim's own name string, so entries share its bytes
	batch    int    // after any batch_size override
	nodes    int
}

// wireMemo is the bounded body-digest memo. A nil *wireMemo never hits and
// stores nothing, which leaves every request on the decode path.
type wireMemo struct {
	c *lru.Sharded[wireDigest, wireEntry]
}

// wireShards matches the L1's shard count: the memo is sized from the L1.
const wireShards = 16

func newWireMemo(entries int) *wireMemo {
	return &wireMemo{c: lru.New[wireDigest, wireEntry](entries, wireShards, func(d wireDigest) uint64 {
		return binary.LittleEndian.Uint64(d[:8])
	})}
}

func (m *wireMemo) get(d wireDigest) (wireEntry, bool) {
	if m == nil {
		return wireEntry{}, false
	}
	return m.c.Get(d)
}

// remember memoizes a body that decoded, validated and (with a batch_size
// override) shape-checked. Bodies naming an unknown platform or a graph that
// does not hash are never stored: they keep failing on the decode path, as
// they always have.
func (m *wireMemo) remember(d wireDigest, platform string, g *onnx.Graph) {
	if m == nil {
		return
	}
	p, err := hwsim.PlatformByName(platform)
	if err != nil {
		return
	}
	key, err := graphhash.GraphKey(g)
	if err != nil {
		return
	}
	m.c.Put(d, wireEntry{key: key, platform: p.Name, batch: g.BatchSize(), nodes: len(g.Nodes)})
}

// maxPooledBody caps the body buffers kept for reuse, so one huge request
// does not pin its buffer in the pool.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads a POST body whole into a pooled buffer; the caller returns
// it with releaseBody once nothing aliases its bytes.
func readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, bool) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return nil, false
	}
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(r.Body); err != nil {
		releaseBody(buf)
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad json: %w", err))
		return nil, false
	}
	return buf, true
}

func releaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// decodeBody is the decode path for a body the wire memo did not answer:
// parse, decode and validate it exactly as every request was handled before
// the memo existed, writing a 400 on failure. A body that gets through is
// remembered under its digest. The returned request and graph own their
// memory, so body may be released afterwards.
func (s *Server) decodeBody(w http.ResponseWriter, body []byte, d wireDigest) (*Request, *onnx.Graph, bool) {
	var req Request
	// A Decoder, not Unmarshal: it has always ignored bytes after the first
	// JSON value, and such a body still differs from its prefix in digest.
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad json: %w", err))
		return nil, nil, false
	}
	if req.Platform == "" {
		writeErr(w, http.StatusBadRequest, errors.New("platform required"))
		return nil, nil, false
	}
	g, err := decodeModel(&req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return nil, nil, false
	}
	s.wire.remember(d, req.Platform, g)
	return &req, g, true
}
