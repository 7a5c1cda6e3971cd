package nn

import (
	"fmt"
	"sync"
)

// ForwardScratch holds the buffers one batched forward pass needs: the
// gathered input matrix and per-layer activation matrices. Like
// TrainScratch, buffers grow on demand and are retained across calls,
// networks, and shapes, so steady-state batch inference allocates nothing.
// A ForwardScratch must not be shared across goroutines; the zero value is
// ready to use.
type ForwardScratch struct {
	xb   []float64   // gathered input batch, batch×inputs
	acts [][]float64 // per-layer activations, batch×out
}

// NewForwardScratch returns an empty scratch; buffers grow on first use.
func NewForwardScratch() *ForwardScratch { return &ForwardScratch{} }

// ensure sizes every buffer for one batch of the network's shape.
func (fs *ForwardScratch) ensure(n *Network, batch int) {
	fs.xb = growFloats(fs.xb, batch*n.cfg.Inputs)
	fs.acts = growMatrix(fs.acts, len(n.layers))
	for li, l := range n.layers {
		fs.acts[li] = growFloats(fs.acts[li], batch*l.out)
	}
}

// forwardScratchPool recycles batch-inference scratch across ForwardBatch
// calls with nil scratch — the fleet recompute path borrows per chunk, so
// concurrent recommenders never contend on buffers.
var forwardScratchPool = sync.Pool{New: func() any { return &ForwardScratch{} }}

// ForwardBatch runs forward passes for a batch of samples through the
// engine's blocked GEMM kernels, writing sample i's outputs into dst[i]
// (which must be len Outputs). fs may be nil to borrow pooled scratch.
//
// This is the batched inference entry point the fleet recompute path rides:
// core.Model.PredictBatch and the recommender's drain/recompute calls fan
// chunks into it, so a whole chunk moves through each layer as one blocked
// matrix multiply (the bit-reproducible scalar gemmNT) instead of
// per-sample dot products. Results are deterministic and match Predict
// within floating-point reassociation (a few ULPs).
func (n *Network) ForwardBatch(xs [][]float64, dst [][]float64, fs *ForwardScratch) error {
	if len(dst) != len(xs) {
		return fmt.Errorf("nn: ForwardBatch dst has %d rows, want %d", len(dst), len(xs))
	}
	nb := len(xs)
	if nb == 0 {
		return nil
	}
	ins := n.cfg.Inputs
	outs := n.cfg.Outputs
	for i, x := range xs {
		if len(x) != ins {
			return fmt.Errorf("nn: input %d has %d features, network expects %d", i, len(x), ins)
		}
		if len(dst[i]) != outs {
			return fmt.Errorf("nn: ForwardBatch dst row %d has %d slots, network outputs %d", i, len(dst[i]), outs)
		}
	}
	if fs == nil {
		fs = forwardScratchPool.Get().(*ForwardScratch)
		defer forwardScratchPool.Put(fs)
	}
	fs.ensure(n, nb)
	xb := fs.xb[:nb*ins]
	for i, x := range xs {
		copy(xb[i*ins:(i+1)*ins], x)
	}
	in := xb
	for li, l := range n.layers {
		gemmNT(fs.acts[li][:nb*l.out], in, l.w, l.b, nb, l.out, l.in, l.relu)
		in = fs.acts[li][:nb*l.out]
	}
	top := fs.acts[len(n.layers)-1][:nb*outs]
	for i := range dst {
		copy(dst[i], top[i*outs:(i+1)*outs])
	}
	return nil
}
