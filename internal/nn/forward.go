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
// It is the network's one forward path: Predict is a one-row ForwardBatch,
// and core.Model's single and batched predictions, the recommender's
// recomputes, and validation scoring all ride it. Rows in full four-row
// blocks move through each layer as one blocked matrix multiply, which
// reassociates their dot products (within a few ULPs of Predict); every
// other row — any batch of fewer than four, and the last len(xs)%4 rows —
// takes the single-row kernel and is bit-identical to Predict. Results are
// deterministic either way.
func (n *Network) ForwardBatch(xs [][]float64, dst [][]float64, fs *ForwardScratch) error {
	if len(dst) != len(xs) {
		return fmt.Errorf("nn: ForwardBatch dst has %d rows, want %d", len(dst), len(xs))
	}
	if len(xs) == 0 {
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
	top := n.forward(fs, xs)
	for i := range dst {
		copy(dst[i], top[i*outs:(i+1)*outs])
	}
	return nil
}

// forward gathers already-validated rows into the scratch and runs every
// layer over them, returning the top layer's activations (len(xs)×Outputs,
// row-major). The result aliases fs and is valid until its next use.
func (n *Network) forward(fs *ForwardScratch, xs [][]float64) []float64 {
	nb := len(xs)
	ins := n.cfg.Inputs
	fs.ensure(n, nb)
	xb := fs.xb[:nb*ins]
	for i, x := range xs {
		copy(xb[i*ins:(i+1)*ins], x)
	}
	in := xb
	for li, l := range n.layers {
		out := fs.acts[li][:nb*l.out]
		l.gemmNT(out, in, nb)
		in = out
	}
	return in
}
