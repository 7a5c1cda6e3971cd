package nn

import (
	"fmt"
	"sync"
)

// ForwardScratch holds the buffers inference needs: the non-zero lists of
// every row's hidden activations, double-buffered between one layer and
// the next, and the batch's output rows. Like TrainScratch, buffers grow
// on demand and are retained across calls, networks, and shapes, so
// steady-state inference allocates nothing. A ForwardScratch must not be
// shared across goroutines; the zero value is ready to use.
type ForwardScratch struct {
	nz  [2][]lanes // per-row non-zero lists: a layer reads one, writes the other
	idx [2][]int32 // backing storage of nz, batch×widest hidden layer
	val [2][]float64
	row []float64 // one row's hidden-layer output, before it is listed in nz
	out []float64 // network outputs, batch×Outputs
}

// NewForwardScratch returns an empty scratch; buffers grow on first use.
func NewForwardScratch() *ForwardScratch { return &ForwardScratch{} }

// ensure sizes every buffer for one batch of the network's shape.
func (fs *ForwardScratch) ensure(n *Network, batch int) {
	wide := 0
	for _, l := range n.layers {
		if l.relu {
			wide = max(wide, l.out)
		}
	}
	for p := range fs.nz {
		if cap(fs.nz[p]) < batch {
			fs.nz[p] = make([]lanes, batch)
		}
		fs.nz[p] = fs.nz[p][:batch]
		if cap(fs.idx[p]) < batch*wide {
			fs.idx[p] = make([]int32, batch*wide)
			fs.val[p] = make([]float64, batch*wide)
		}
		for r := range fs.nz[p] {
			fs.nz[p][r].idx = fs.idx[p][r*wide : (r+1)*wide]
			fs.nz[p][r].val = fs.val[p][r*wide : (r+1)*wide]
		}
	}
	fs.row = growFloats(fs.row, wide)
	fs.out = growFloats(fs.out, batch*n.cfg.Outputs)
}

// forwardScratchPool recycles inference scratch across ForwardBatch calls
// with nil scratch — the fleet recompute path borrows per chunk, so
// concurrent recommenders never contend on buffers.
var forwardScratchPool = sync.Pool{New: func() any { return &ForwardScratch{} }}

// ForwardBatch runs forward passes for a batch of samples, writing sample
// i's outputs into dst[i] (which must be len Outputs). fs may be nil to
// borrow pooled scratch.
//
// It is the network's one inference path: Predict is a one-row
// ForwardBatch, and core.Model's single and batched predictions, the
// recommender's recomputes, and validation scoring all ride it. The batch
// crosses the network one layer at a time, each row through the one-row
// kernel (dense.forwardInto), so a layer's weights stay in cache across
// the batch and every row is bit-identical to Predict on it, whatever
// rows share its batch.
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

// forward runs already-validated rows through every layer, one layer at a
// time, and returns the top layer's outputs (len(xs)×Outputs, row-major).
// The result aliases fs and is valid until its next use.
func (n *Network) forward(fs *ForwardScratch, xs [][]float64) []float64 {
	nb := len(xs)
	outs := n.cfg.Outputs
	fs.ensure(n, nb)
	for li, l := range n.layers {
		for r, x := range xs {
			var in, next *lanes
			if li > 0 {
				in = &fs.nz[li%2][r]
			}
			out := fs.out[r*outs : (r+1)*outs]
			if l.relu {
				next = &fs.nz[(li+1)%2][r]
				out = fs.row[:l.out]
			}
			l.forwardInto(x, in, out, next)
		}
	}
	return fs.out[:nb*outs]
}

// forwardInto computes the layer for one row into out. The first layer
// reads the dense input x, because scaled features are seldom zero; every
// later layer reads in, the non-zero entries of the ReLU output below it,
// and skips the rest (see the package doc for why that changes no bit).
// A hidden layer then lists out's non-zero entries in next.
func (d *dense) forwardInto(x []float64, in *lanes, out []float64, next *lanes) {
	if in == nil {
		d.denseInto(x, out)
	} else {
		d.sparseInto(in, out)
	}
	if next != nil {
		next.fill(out)
	}
}

// sparseInto computes the layer for one row from the non-zero entries in
// lists, four outputs at a time: each lane's entries are loaded once for
// the four weight rows, whose sums are four independent dependency
// chains. Every output keeps dotBias's order: each lane summed from +0 in
// ascending index order, then the bias and the four lane sums, then the
// tail.
func (d *dense) sparseInto(in *lanes, out []float64) {
	k, q := d.in, in.q
	o := 0
	for ; o+4 <= len(out); o += 4 {
		wa := d.w[o*k : o*k+k]
		// Reslice the co-indexed rows to wa's length so one bounds check
		// covers all four loads.
		wb := d.w[(o+1)*k : (o+1)*k+k][:len(wa)]
		wc := d.w[(o+2)*k : (o+2)*k+k][:len(wa)]
		wd := d.w[(o+3)*k : (o+3)*k+k][:len(wa)]
		var sa, sb, sc, sd [4]float64
		for j := 0; j < 4; j++ {
			idx := in.idx[j*q : j*q+in.n[j]]
			val := in.val[j*q : j*q+in.n[j]][:len(idx)]
			var a, b, c, e float64
			for t, i := range idx {
				v := val[t]
				a += wa[i] * v
				b += wb[i] * v
				c += wc[i] * v
				e += wd[i] * v
			}
			sa[j], sb[j], sc[j], sd[j] = a, b, c, e
		}
		bias := d.b[o : o+4]
		a := bias[0] + sa[0] + sa[1] + sa[2] + sa[3]
		b := bias[1] + sb[0] + sb[1] + sb[2] + sb[3]
		c := bias[2] + sc[0] + sc[1] + sc[2] + sc[3]
		e := bias[3] + sd[0] + sd[1] + sd[2] + sd[3]
		idx := in.idx[4*q : 4*q+in.n[4]]
		val := in.val[4*q : 4*q+in.n[4]][:len(idx)]
		for t, i := range idx {
			v := val[t]
			a += wa[i] * v
			b += wb[i] * v
			c += wc[i] * v
			e += wd[i] * v
		}
		if d.relu {
			a, b, c, e = relu0(a), relu0(b), relu0(c), relu0(e)
		}
		out[o], out[o+1], out[o+2], out[o+3] = a, b, c, e
	}
	for ; o < len(out); o++ {
		s := in.dotBias(d.row(o), d.b[o])
		if d.relu && s < 0 {
			s = 0
		}
		out[o] = s
	}
}

// lanes lists the non-zero entries of one activation row by the
// accumulator of dotBias that sums them. With n4 = len(row) &^ 3, lane j
// < 4 holds the entries at indices i < n4 with i%4 == j, stored from
// slot j·n4/4; lane 4 holds the tail i ≥ n4, stored from slot n4. Each
// lane is in ascending index order, so summing a lane visits its terms in
// dotBias's order.
type lanes struct {
	idx []int32   // the entry's index in the row
	val []float64 // the entry's value
	n   [5]int    // entries per lane
	q   int       // slots per lane j < 4, n4/4
}

// fill lists row's non-zero entries. The stores are unconditional and
// only the count depends on the value, so the about-half-dead ReLU output
// costs no mispredicted branches.
func (z *lanes) fill(row []float64) {
	n4 := len(row) &^ 3
	q := n4 / 4
	idx, val := z.idx[:len(row)], z.val[:len(row)]
	var c0, c1, c2, c3 int
	for i := 0; i < n4; i += 4 {
		v0, v1, v2, v3 := row[i], row[i+1], row[i+2], row[i+3]
		idx[c0], val[c0] = int32(i), v0
		c0 += nonZero(v0)
		idx[q+c1], val[q+c1] = int32(i+1), v1
		c1 += nonZero(v1)
		idx[2*q+c2], val[2*q+c2] = int32(i+2), v2
		c2 += nonZero(v2)
		idx[3*q+c3], val[3*q+c3] = int32(i+3), v3
		c3 += nonZero(v3)
	}
	c4 := 0
	for i := n4; i < len(row); i++ {
		idx[n4+c4], val[n4+c4] = int32(i), row[i]
		c4 += nonZero(row[i])
	}
	z.n = [5]int{c0, c1, c2, c3, c4}
	z.q = q
}

func nonZero(v float64) int {
	if v != 0 {
		return 1
	}
	return 0
}

// dotBias returns b + w·row for the row z lists, term for term in
// dotBias's order with the zero terms left out: each lane j < 4 summed
// from +0, then the bias and the four lane sums, then the tail.
func (z *lanes) dotBias(w []float64, b float64) float64 {
	s := b
	for j := 0; j < 4; j++ {
		var sj float64
		for k, i := range z.idx[j*z.q : j*z.q+z.n[j]] {
			sj += w[i] * z.val[j*z.q+k]
		}
		s += sj
	}
	n4 := 4 * z.q
	for k, i := range z.idx[n4 : n4+z.n[4]] {
		s += w[i] * z.val[n4+k]
	}
	return s
}
