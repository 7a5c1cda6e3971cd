package nn

import (
	"context"
	"math"
	"sync"

	"sizeless/internal/xrand"
)

// TrainScratch holds every buffer one mini-batch training step needs:
// the gathered input batch, one row's list of non-zero inputs, per-layer
// activation and delta matrices, and per-layer gradient accumulators.
// Buffers grow on demand and are retained across epochs, networks, and
// shapes, so the steady-state epoch loop performs zero allocations — the
// training-side mirror of the pooled features.Extractor on the inference
// path.
//
// Ownership rules: a TrainScratch must not be shared across goroutines
// (each concurrent trainer takes its own, typically from the internal
// sync.Pool that a nil scratch borrows from); it may be reused freely
// across sequential Train calls on networks of any shape; the zero value
// is ready to use. Its contents are unspecified between calls.
type TrainScratch struct {
	xb    []float64      // gathered input batch, batch×inputs
	acts  [][]float64    // post-activations per layer, batch×out
	delta [][]float64    // dL/dZ per layer, batch×out
	gradW [][]float64    // per-layer weight-gradient accumulator, out×in
	gradB [][]float64    // per-layer bias-gradient accumulator, out
	nzIdx []int32        // one row's non-zero inputs, ascending: indices
	nzVal []float64      // and values; len = the widest layer input
	perm  []int          // epoch shuffle order, len(x)
	val   ForwardScratch // one-row forward buffers of the validation pass
}

// ensure sizes every buffer for one batch of the network's shape.
func (ts *TrainScratch) ensure(n *Network, batch int) {
	ts.xb = growFloats(ts.xb, batch*n.cfg.Inputs)
	ts.acts = growMatrix(ts.acts, len(n.layers))
	ts.delta = growMatrix(ts.delta, len(n.layers))
	ts.gradW = growMatrix(ts.gradW, len(n.layers))
	ts.gradB = growMatrix(ts.gradB, len(n.layers))
	wide := 0
	for li, l := range n.layers {
		wide = max(wide, l.in)
		ts.acts[li] = growFloats(ts.acts[li], batch*l.out)
		ts.delta[li] = growFloats(ts.delta[li], batch*l.out)
		ts.gradW[li] = growFloats(ts.gradW[li], len(l.w))
		ts.gradB[li] = growFloats(ts.gradB[li], l.out)
	}
	if cap(ts.nzIdx) < wide {
		ts.nzIdx = make([]int32, wide)
	}
	ts.nzIdx = ts.nzIdx[:wide]
	ts.nzVal = growFloats(ts.nzVal, wide)
}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growMatrix(buf [][]float64, n int) [][]float64 {
	if cap(buf) < n {
		next := make([][]float64, n)
		copy(next, buf)
		return next
	}
	return buf[:n]
}

// trainScratchPool recycles scratch across Train calls and goroutines —
// grid searches and ensemble training churn through many short-lived
// networks, and the scratch (a few MB at paper shape) dwarfs each step's
// arithmetic state.
var trainScratchPool = sync.Pool{New: func() any { return &TrainScratch{} }}

// Train fits the network to (X, Y) for its configured epoch budget and
// returns the mean training loss of the final epoch. Cancelling ctx stops
// training at the next epoch boundary and returns the context's error;
// the network remains usable (it keeps the weights of the last completed
// epoch).
func (n *Network) Train(ctx context.Context, x, y [][]float64) (float64, error) {
	s, err := n.NewSession(x, y, n.cfg.Epochs, Validation{})
	if err != nil {
		return 0, err
	}
	_, err = s.Train(ctx, n.cfg.Epochs, nil)
	return s.Stats().TrainLoss, err
}

// shuffleStream returns the network's epoch-shuffle stream, derived from
// the seed on first use and persisted across training calls. The
// persistence is what makes a session advanced in slices (pool.RunSlices
// in core.Train and core.FineTune) draw the exact permutation sequence of
// one continuous run, so the slicing never changes a trained bit.
func (n *Network) shuffleStream() *xrand.Stream {
	if n.shuffle == nil {
		n.shuffle = xrand.New(n.cfg.Seed).Derive("nn-shuffle")
	}
	return n.shuffle
}

// trainBatch pushes one mini-batch through the network as (batch × dim)
// matrices, accumulates gradients, and applies one optimizer step.
// Returns the summed sample loss. Frozen layers are skipped by the
// backward pass entirely: no gradient accumulation, no delta propagation
// below the lowest unfrozen layer.
func (n *Network) trainBatch(x, y [][]float64, batch []int, ts *TrainScratch) float64 {
	nb := len(batch)
	ins := n.cfg.Inputs
	L := len(n.layers)

	// Gather the batch rows into one contiguous input matrix.
	xb := ts.xb[:nb*ins]
	for s, idx := range batch {
		copy(xb[s*ins:(s+1)*ins], x[idx])
	}

	// Forward: x·wᵀ + bias, ReLU on hidden layers, per layer over the
	// whole batch, skipping zero inputs. Only post-activations are
	// retained; the ReLU mask is recovered from them (a > 0 ⟺ z > 0).
	in := xb
	for li, l := range n.layers {
		l.trainForward(ts.acts[li][:nb*l.out], in, nb, ts.nzIdx, ts.nzVal)
		in = ts.acts[li][:nb*l.out]
	}

	// Loss and dL/dpred per sample, written into the top delta matrix.
	outW := n.layers[L-1].out
	top := ts.delta[L-1]
	var total float64
	for s, idx := range batch {
		total += n.lossAndGradInto(ts.acts[L-1][s*outW:(s+1)*outW], y[idx], top[s*outW:(s+1)*outW])
	}

	// Backward, stopping at the freeze boundary.
	for li := L - 1; li >= n.frozen; li-- {
		l := n.layers[li]
		delta := ts.delta[li][:nb*l.out]
		input := xb
		if li > 0 {
			input = ts.acts[li-1][:nb*l.in]
		}
		gw := ts.gradW[li][:len(l.w)]
		gb := ts.gradB[li][:l.out]
		accumGrad(gw, gb, delta, input, nb, l.out, l.in)
		if li > n.frozen {
			// Propagate: dZ_{li-1} = (delta · W_li) ⊙ relu'(a_{li-1}).
			// Post-ReLU activations are never negative, so the derivative
			// mask reduces to "zero where the activation is exactly zero" —
			// written branchless because dead units are ~half the lanes and
			// the branch would mispredict constantly.
			prev := ts.delta[li-1][:nb*l.in]
			gemmNN(prev, delta, l.w, nb, l.out, l.in)
			a := ts.acts[li-1][:nb*l.in]
			for i, av := range a {
				var keep float64
				if av > 0 {
					keep = 1
				}
				prev[i] *= keep
			}
		}
	}

	n.step++
	n.applyGradients(ts, 1/float64(nb))
	return total
}

// applyGradients performs one optimizer update from the scratch
// accumulators, skipping frozen layers. Batch averaging (multiplying by
// the hoisted reciprocal — a ULP-level difference from the retired
// per-element division) and the L2 term are fused into the update's
// single pass over the gradients instead of a separate scaling sweep.
func (n *Network) applyGradients(ts *TrainScratch, invBs float64) {
	lr := n.cfg.LearningRate
	l2 := n.cfg.L2
	const (
		beta1 = 0.9
		beta2 = 0.999
		eps   = 1e-8
	)
	switch n.cfg.Optimizer {
	case SGD:
		for li := n.frozen; li < len(n.layers); li++ {
			l := n.layers[li]
			w := l.w
			gw := ts.gradW[li][:len(w)]
			for i := range w {
				w[i] -= lr * (gw[i]*invBs + l2*w[i])
			}
			gb := ts.gradB[li]
			for o := range l.b {
				l.b[o] -= lr * (gb[o] * invBs)
			}
		}
	case Adagrad:
		for li := n.frozen; li < len(n.layers); li++ {
			l := n.layers[li]
			w := l.w
			gw := ts.gradW[li][:len(w)]
			vW := l.vW[:len(w)]
			for i := range w {
				g := gw[i]*invBs + l2*w[i]
				v := vW[i] + g*g
				vW[i] = v
				w[i] -= lr * g / (math.Sqrt(v) + eps)
			}
			gb := ts.gradB[li]
			for o := range l.b {
				g := gb[o] * invBs
				l.vB[o] += g * g
				l.b[o] -= lr * g / (math.Sqrt(l.vB[o]) + eps)
			}
		}
	case Adam:
		t := float64(n.step)
		// Bias corrections hoisted to one multiply per weight: lr/c1 folds
		// into the step size and 1/c2 turns the inner division into a
		// multiplication — a rounding difference of a few ULPs versus the
		// retired formulation, well inside the engine-parity tolerance.
		lrc1 := lr / (1 - math.Pow(beta1, t))
		invC2 := 1 / (1 - math.Pow(beta2, t))
		for li := n.frozen; li < len(n.layers); li++ {
			l := n.layers[li]
			w := l.w
			gw := ts.gradW[li][:len(w)]
			mW := l.mW[:len(w)]
			vW := l.vW[:len(w)]
			for i := range w {
				g := gw[i]*invBs + l2*w[i]
				m := beta1*mW[i] + (1-beta1)*g
				v := beta2*vW[i] + (1-beta2)*g*g
				mW[i], vW[i] = m, v
				w[i] -= lrc1 * m / (math.Sqrt(v*invC2) + eps)
			}
			gb := ts.gradB[li]
			for o := range l.b {
				g := gb[o] * invBs
				m := beta1*l.mB[o] + (1-beta1)*g
				v := beta2*l.vB[o] + (1-beta2)*g*g
				l.mB[o], l.vB[o] = m, v
				l.b[o] -= lrc1 * m / (math.Sqrt(v*invC2) + eps)
			}
		}
	}
}

// trainForward computes the layer over a batch, dst = x·wᵀ + bias (x:
// n×k, w: m×k, dst: n×m with k = d.in and m = d.out, all row-major flat),
// clamping negatives to zero on hidden layers (fused ReLU). It is the
// training forward of every layer. Each of the first n&^3 rows lists its
// non-zero inputs in idx and val (len ≥ k), in ascending order, and each
// of its outputs sums only those terms: one chain from +0 in ascending
// input index, then the bias. That is the dense chain with its ±0 terms
// left out, so no bit changes (see the package doc). Four outputs share
// each listed input per pass, as four independent chains. The rows past
// n&^3 take denseInto's dotBias order. Both orders are frozen into every
// trained model.
func (d *dense) trainForward(dst, x []float64, n int, idx []int32, val []float64) {
	m, k := d.out, d.in
	n4 := n &^ 3
	for s := 0; s < n4; s++ {
		c := listNonZero(x[s*k:(s+1)*k], idx, val)
		d.chainInto(idx[:c], val[:c], dst[s*m:(s+1)*m])
	}
	for s := n4; s < n; s++ {
		d.denseInto(x[s*k:(s+1)*k], dst[s*m:(s+1)*m])
	}
}

// listNonZero writes row's non-zero entries, in ascending index order,
// into idx and val and returns their count. The stores are unconditional
// and only the count depends on the value, so a half-dead ReLU output
// costs no mispredicted branches.
func listNonZero(row []float64, idx []int32, val []float64) int {
	idx, val = idx[:len(row)], val[:len(row)]
	c := 0
	for i, v := range row {
		idx[c], val[c] = int32(i), v
		c += nonZero(v)
	}
	return c
}

// chainInto computes one row of the layer from its listed non-zero
// inputs: each output sums w[o][i]·v over the list from +0, adds its bias,
// then the ReLU.
func (d *dense) chainInto(idx []int32, val []float64, out []float64) {
	k := d.in
	val = val[:len(idx)]
	o := 0
	for ; o+4 <= len(out); o += 4 {
		wa := d.w[o*k : o*k+k]
		// Reslice the co-indexed rows to wa's length so one bounds check
		// covers all four loads.
		wb := d.w[(o+1)*k : (o+1)*k+k][:len(wa)]
		wc := d.w[(o+2)*k : (o+2)*k+k][:len(wa)]
		wd := d.w[(o+3)*k : (o+3)*k+k][:len(wa)]
		var a, b, c, e float64
		for t, i := range idx {
			v := val[t]
			a += wa[i] * v
			b += wb[i] * v
			c += wc[i] * v
			e += wd[i] * v
		}
		bias := d.b[o : o+4]
		a += bias[0]
		b += bias[1]
		c += bias[2]
		e += bias[3]
		if d.relu {
			a, b, c, e = relu0(a), relu0(b), relu0(c), relu0(e)
		}
		out[o], out[o+1], out[o+2], out[o+3] = a, b, c, e
	}
	for ; o < len(out); o++ {
		wo := d.row(o)
		var a float64
		for t, i := range idx {
			a += wo[i] * val[t]
		}
		a += d.b[o]
		if d.relu {
			a = relu0(a)
		}
		out[o] = a
	}
}

func relu0(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// gemmNN overwrites dst with delta·w (delta: n×m, w: m×k, dst: n×k) —
// the backward input-gradient product. Samples are processed in tiles of
// four so each weight row streams from cache once per tile, weight rows in
// pairs so each destination row is read and written half as often, and
// ReLU-dead deltas (exact zeros, the common case in hidden layers) skip
// their row update entirely.
func gemmNN(dst, delta, w []float64, n, m, k int) {
	if m < 2 {
		// Degenerate single-output layer: zero-fill then accumulate.
		clear(dst[:n*k])
		for s := 0; s < n; s++ {
			if v := delta[s*m]; v != 0 {
				axpy(dst[s*k:(s+1)*k], w[:k], v)
			}
		}
		return
	}
	s := 0
	for ; s+4 <= n; s += 4 {
		d0 := dst[(s+0)*k : (s+1)*k]
		d1 := dst[(s+1)*k : (s+2)*k]
		d2 := dst[(s+2)*k : (s+3)*k]
		d3 := dst[(s+3)*k : (s+4)*k]
		g0 := delta[(s+0)*m : (s+1)*m]
		g1 := delta[(s+1)*m : (s+2)*m]
		g2 := delta[(s+2)*m : (s+3)*m]
		g3 := delta[(s+3)*m : (s+4)*m]
		// The first output pair writes (zeroing as it goes); the rest
		// accumulate — no separate memclr pass over dst.
		wa := w[:k]
		wb := w[k : 2*k]
		set2(d0, wa, wb, g0[0], g0[1])
		set2(d1, wa, wb, g1[0], g1[1])
		set2(d2, wa, wb, g2[0], g2[1])
		set2(d3, wa, wb, g3[0], g3[1])
		o := 2
		for ; o+2 <= m; o += 2 {
			wa := w[(o+0)*k : (o+1)*k]
			wb := w[(o+1)*k : (o+1)*k+k]
			addPair(d0, wa, wb, g0[o], g0[o+1])
			addPair(d1, wa, wb, g1[o], g1[o+1])
			addPair(d2, wa, wb, g2[o], g2[o+1])
			addPair(d3, wa, wb, g3[o], g3[o+1])
		}
		for ; o < m; o++ {
			wo := w[o*k : o*k+k]
			if v := g0[o]; v != 0 {
				axpy(d0, wo, v)
			}
			if v := g1[o]; v != 0 {
				axpy(d1, wo, v)
			}
			if v := g2[o]; v != 0 {
				axpy(d2, wo, v)
			}
			if v := g3[o]; v != 0 {
				axpy(d3, wo, v)
			}
		}
	}
	for ; s < n; s++ {
		ds := dst[s*k : (s+1)*k]
		gs := delta[s*m : (s+1)*m]
		set2(ds, w[:k], w[k:2*k], gs[0], gs[1])
		o := 2
		for ; o+2 <= m; o += 2 {
			addPair(ds, w[o*k:(o+1)*k], w[(o+1)*k:(o+1)*k+k], gs[o], gs[o+1])
		}
		for ; o < m; o++ {
			if v := gs[o]; v != 0 {
				axpy(ds, w[o*k:o*k+k], v)
			}
		}
	}
}

// set2 overwrites dst with va·a + vb·b in one pass, fusing the zero fill
// into the first accumulation.
func set2(dst, a, b []float64, va, vb float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	n := len(dst) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] = va*a[i] + vb*b[i]
		dst[i+1] = va*a[i+1] + vb*b[i+1]
		dst[i+2] = va*a[i+2] + vb*b[i+2]
		dst[i+3] = va*a[i+3] + vb*b[i+3]
	}
	for i := n; i < len(dst); i++ {
		dst[i] = va*a[i] + vb*b[i]
	}
}

// addPair computes dst += va·a + vb·b, degrading to a single (or no)
// update when a coefficient is zero.
func addPair(dst, a, b []float64, va, vb float64) {
	switch {
	case va != 0 && vb != 0:
		axpy2(dst, a, b, va, vb)
	case va != 0:
		axpy(dst, a, va)
	case vb != 0:
		axpy(dst, b, vb)
	}
}

// accumGrad overwrites gradW with deltaᵀ·x and gradB with delta's column
// sums (delta: n×m, x: n×k, gradW: m×k, gradB: m). Samples iterate
// outermost in pairs — preserving the retired engine's per-weight
// accumulation order up to one fused add while halving the gradient-row
// traffic — the first pair writing the accumulators directly so no
// separate zero-fill pass is needed.
func accumGrad(gradW, gradB, delta, x []float64, n, m, k int) {
	s := 0
	if n >= 2 {
		x0 := x[:k]
		x1 := x[k : 2*k]
		g0 := delta[:m]
		g1 := delta[m : 2*m]
		for o := 0; o < m; o++ {
			dv0, dv1 := g0[o], g1[o]
			gradB[o] = dv0 + dv1
			set2(gradW[o*k:o*k+k], x0, x1, dv0, dv1)
		}
		s = 2
	} else {
		clear(gradW[:m*k])
		clear(gradB[:m])
	}
	for ; s+2 <= n; s += 2 {
		x0 := x[s*k : (s+1)*k]
		x1 := x[(s+1)*k : (s+2)*k]
		g0 := delta[s*m : (s+1)*m]
		g1 := delta[(s+1)*m : (s+2)*m]
		for o := 0; o < m; o++ {
			dv0, dv1 := g0[o], g1[o]
			if dv0 == 0 && dv1 == 0 {
				continue
			}
			gradB[o] += dv0 + dv1
			addPair(gradW[o*k:o*k+k], x0, x1, dv0, dv1)
		}
	}
	for ; s < n; s++ {
		xs := x[s*k : (s+1)*k]
		ds := delta[s*m : (s+1)*m]
		for o, dv := range ds {
			if dv == 0 {
				continue
			}
			axpy(gradW[o*k:o*k+k], xs, dv)
			gradB[o] += dv
		}
	}
}

// axpy2 computes dst += v0·s0 + v1·s1 in one pass — half the
// destination read/write traffic of two axpy calls. All slices must share
// a length.
func axpy2(dst, s0, s1 []float64, v0, v1 float64) {
	s0 = s0[:len(dst)]
	s1 = s1[:len(dst)]
	n := len(dst) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] += v0*s0[i] + v1*s1[i]
		dst[i+1] += v0*s0[i+1] + v1*s1[i+1]
		dst[i+2] += v0*s0[i+2] + v1*s1[i+2]
		dst[i+3] += v0*s0[i+3] + v1*s1[i+3]
	}
	for i := n; i < len(dst); i++ {
		dst[i] += v0*s0[i] + v1*s1[i]
	}
}

// dotBias computes b + w·x with four independent accumulators, breaking
// the add-latency dependency chain that bounds the naive loop: lane j
// sums the terms i < n4 with i%4 == j (n4 = len(x) &^ 3), then b and the
// four lanes are added in order, then the tail terms. This summation
// order is frozen; lanes.dotBias keeps it with the zero terms left out.
func dotBias(w, x []float64, b float64) float64 {
	w = w[:len(x)]
	var s0, s1, s2, s3 float64
	n := len(x) &^ 3
	for i := 0; i < n; i += 4 {
		s0 += w[i] * x[i]
		s1 += w[i+1] * x[i+1]
		s2 += w[i+2] * x[i+2]
		s3 += w[i+3] * x[i+3]
	}
	s := b + s0 + s1 + s2 + s3
	for i := n; i < len(x); i++ {
		s += w[i] * x[i]
	}
	return s
}

// axpy computes dst += v·src with a 4-wide unroll. len(src) must equal
// len(dst).
func axpy(dst, src []float64, v float64) {
	src = src[:len(dst)] // bounds-check elimination for the src loads
	n := len(dst) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] += v * src[i]
		dst[i+1] += v * src[i+1]
		dst[i+2] += v * src[i+2]
		dst[i+3] += v * src[i+3]
	}
	for i := n; i < len(dst); i++ {
		dst[i] += v * src[i]
	}
}
