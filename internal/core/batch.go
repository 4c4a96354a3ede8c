package core

import (
	"fmt"

	"nnlqp/internal/feats"
	"nnlqp/internal/gnn"
	"nnlqp/internal/onnx"
	"nnlqp/internal/tensor"
)

// This file implements micro-batched prediction: B graphs packed into one
// forward pass. The packing is block-diagonal — node-feature rows of all
// graphs concatenate into one (Σ nodes)×FeatureDim matrix, each graph's
// adjacency is offset into its row range (so no edge ever crosses a graph
// boundary), SumPool reduces per-graph row segments, and the per-platform
// head evaluates all B embeddings in one B×dim pass. Every kernel in that
// chain is row-independent (matmul rows, mean aggregation, L2 row norms,
// ReLU, bias add), so each graph's prediction is bit-identical to its solo
// Predict — batching changes throughput, never answers. The property test
// in batch_test.go pins this at widths 1/2/7/32.
//
// The win over B solo calls is amortization: the blocked matmul streams
// each weight panel once per (Σ nodes) rows instead of once per graph's
// nodes, and per-call overhead (scratch bookkeeping, head dispatch) is paid
// once per batch.

// batchState is one goroutine's pooled batched-inference workspace. All
// packing buffers grow to the largest batch seen and are reused, so steady
// state allocates nothing.
type batchState struct {
	sc      *tensor.Scratch
	x       *tensor.Matrix         // packed (Σ nodes)×FeatureDim node features
	csr     gnn.CSR                // packed block-diagonal adjacency, flattened
	segs    []int                  // per-graph row offsets, len B+1
	statics []float64              // packed B×StaticDim static features
	gfs     []*feats.GraphFeatures // extracted features per graph (borrowed)
}

// batchPool hands out batchStates; lazily initialized because gob-loaded
// predictors construct through New just like fresh ones.
func (p *Predictor) batchState() *batchState {
	st, _ := p.batchPool.Get().(*batchState)
	if st == nil {
		st = &batchState{sc: tensor.NewScratch(), x: &tensor.Matrix{}}
	}
	return st
}

// PredictBatch predicts latency (ms) for every graph on one platform in a
// single packed forward pass. Results are positionally aligned with gs and
// bit-identical to calling Predict per graph. Feature extraction is
// memoized per graph exactly as in Predict.
func (p *Predictor) PredictBatch(gs []*onnx.Graph, platform string) ([]float64, error) {
	return p.PredictBatchInto(nil, gs, platform)
}

// PredictBatchInto is PredictBatch appending into dst (grown as needed and
// returned). With a reused dst of sufficient capacity the steady-state call
// is allocation-free: packing buffers, scratch matrices and the head pass
// all run on pooled memory.
func (p *Predictor) PredictBatchInto(dst []float64, gs []*onnx.Graph, platform string) ([]float64, error) {
	if p.norm == nil {
		return nil, fmt.Errorf("core: predictor not fitted")
	}
	if _, ok := p.heads[platform]; !ok {
		return nil, fmt.Errorf("core: no head for platform %q", platform)
	}
	if len(gs) == 0 {
		return dst, nil
	}
	st := p.batchState()
	st.gfs = st.gfs[:0]
	for _, g := range gs {
		gf, err := feats.ExtractCached(g, p.cfg.elemSize())
		if err != nil {
			p.batchPool.Put(st)
			return nil, err
		}
		st.gfs = append(st.gfs, gf)
	}
	dst = p.predictPacked(dst, st, platform)
	p.batchPool.Put(st)
	return dst, nil
}

// Extract runs (memoized) feature extraction for g under this predictor's
// configuration, for callers that validate graphs individually before
// batching the resulting feature sets through PredictSamplesInto.
func (p *Predictor) Extract(g *onnx.Graph) (*feats.GraphFeatures, error) {
	return feats.ExtractCached(g, p.cfg.elemSize())
}

// PredictSamplesInto predicts latency for pre-extracted feature sets (read
// only) on one platform through the packed batch path, appending into dst.
func (p *Predictor) PredictSamplesInto(dst []float64, gfs []*feats.GraphFeatures, platform string) ([]float64, error) {
	if p.norm == nil {
		return nil, fmt.Errorf("core: predictor not fitted")
	}
	if _, ok := p.heads[platform]; !ok {
		return nil, fmt.Errorf("core: no head for platform %q", platform)
	}
	if len(gfs) == 0 {
		return dst, nil
	}
	st := p.batchState()
	st.gfs = append(st.gfs[:0], gfs...)
	dst = p.predictPacked(dst, st, platform)
	p.batchPool.Put(st)
	return dst, nil
}

// predictPacked runs the packed forward over st.gfs and appends one
// prediction per graph to dst. st.gfs entries are only read; the packed
// copies are what normalization mutates.
func (p *Predictor) predictPacked(dst []float64, st *batchState, platform string) []float64 {
	b := len(st.gfs)
	total := 0
	for _, gf := range st.gfs {
		total += gf.X.Rows
	}

	// Pack node features and the block-diagonal adjacency into reusable
	// buffers, then normalize the packed copies — row-wise, so bit-identical
	// to normalizing each graph's clone on the solo path.
	x := st.x
	if cap(x.Data) < total*feats.FeatureDim {
		x.Data = make([]float64, total*feats.FeatureDim)
	}
	x.Rows, x.Cols = total, feats.FeatureDim
	x.Data = x.Data[:total*feats.FeatureDim]
	st.csr.Reset()
	st.segs = append(st.segs[:0], 0)
	if cap(st.statics) < b*feats.StaticDim {
		st.statics = make([]float64, b*feats.StaticDim)
	}
	st.statics = st.statics[:b*feats.StaticDim]
	off := 0
	for gi, gf := range st.gfs {
		copy(x.Data[off*feats.FeatureDim:], gf.X.Data)
		st.csr.AppendGraph(gf.Adj, off)
		static := st.statics[gi*feats.StaticDim : (gi+1)*feats.StaticDim]
		copy(static, gf.Static)
		p.norm.ApplyStatic(static)
		off += gf.X.Rows
		st.segs = append(st.segs, off)
	}
	p.norm.ApplyX(x)

	// One forward pass over the packed batch, mirroring embedFused's
	// ablation switch.
	sc := st.sc
	var pooled *tensor.Matrix
	switch {
	case !p.cfg.UseNodeFeats:
		// static only
	case p.cfg.UseGNN:
		wp := p.weightPlanCurrent()
		h := p.enc.ForwardInferCSR(x, &st.csr, wp.stacked, sc)
		pooled = gnn.SumPoolSegmentsScratch(h, st.segs, sc)
	default:
		pooled = gnn.SumPoolSegmentsScratch(x, st.segs, sc)
	}
	if pooled != nil && p.cfg.MeanPool {
		for gi := 0; gi < b; gi++ {
			if n := st.segs[gi+1] - st.segs[gi]; n > 0 {
				row := pooled.Row(gi)
				inv := 1 / float64(n)
				for j := range row {
					row[j] *= inv
				}
			}
		}
	}

	dim := 0
	if pooled != nil {
		dim = pooled.Cols
	}
	withStatic := p.cfg.UseStatic || dim == 0
	if withStatic {
		dim += feats.StaticDim
	}
	headIn := sc.GetAtLeast(b, dim)
	for gi := 0; gi < b; gi++ {
		row := headIn.Row(gi)
		if pooled != nil {
			copy(row, pooled.Row(gi))
			row = row[pooled.Cols:]
		}
		if withStatic {
			copy(row, st.statics[gi*feats.StaticDim:(gi+1)*feats.StaticDim])
		}
	}
	pred := p.heads[platform].ForwardInfer(headIn, sc)
	for gi := 0; gi < b; gi++ {
		dst = append(dst, p.decodeTarget(pred.At(gi, 0), platform))
	}
	sc.Reset()
	return dst
}
