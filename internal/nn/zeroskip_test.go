package nn

import (
	"context"
	"math"
	"testing"

	"sizeless/internal/xrand"
)

// dotBiasScalar is the dense single-row dot product the inference kernel
// replaced, kept verbatim as the reference: b + w·x over every term,
// zeros included, with four lane accumulators, the bias first in the
// final sum and the tail terms last.
func dotBiasScalar(w, x []float64, b float64) float64 {
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

// refLayer is one layer through dotBiasScalar over the dense input.
func refLayer(d *dense, x []float64) []float64 {
	out := make([]float64, d.out)
	for o := range out {
		s := dotBiasScalar(d.row(o), x, d.b[o])
		if d.relu && s < 0 {
			s = 0
		}
		out[o] = s
	}
	return out
}

// refForward runs x through every layer of n with refLayer.
func refForward(n *Network, x []float64) []float64 {
	for _, l := range n.layers {
		x = refLayer(l, x)
	}
	return x
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// zeroSkipWidths hits every remainder lane (1–9) and the paper width.
var zeroSkipWidths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 256}

// edgeValue draws one input entry of the class code picks: runs of +0
// and −0, subnormals of either sign, tiny and ordinary normals.
func edgeValue(code byte, rng *xrand.Stream) float64 {
	switch code % 8 {
	case 0, 1:
		return 0
	case 2:
		return math.Copysign(0, -1)
	case 3:
		return math.Float64frombits(uint64(rng.Int63()) & (1<<52 - 1)) // positive subnormal or +0
	case 4:
		return -math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
	case 5:
		return rng.NormFloat64() * 1e-300
	default:
		return rng.NormFloat64()
	}
}

// zeroSkipLayer builds an in×out layer with finite random weights: mostly
// ordinary normals, some exact zeros and some tiny enough that a product
// with a subnormal input underflows to a signed zero.
func zeroSkipLayer(rng *xrand.Stream, in, out int, relu bool) *dense {
	d := &dense{in: in, out: out, relu: relu, w: make([]float64, in*out), b: make([]float64, out)}
	draw := func() float64 {
		switch rng.Intn(10) {
		case 0:
			return math.Copysign(0, rng.NormFloat64())
		case 1:
			return rng.NormFloat64() * 1e-290
		default:
			return rng.NormFloat64()
		}
	}
	for i := range d.w {
		d.w[i] = draw()
	}
	for i := range d.b {
		d.b[i] = draw()
	}
	return d
}

// checkZeroSkipLayer holds forwardInto on lanes of x to refLayer on x, and
// the lanes it lists for the next layer to x's non-zero entries.
func checkZeroSkipLayer(t *testing.T, d *dense, x []float64) {
	t.Helper()
	in := &lanes{idx: make([]int32, len(x)), val: make([]float64, len(x))}
	in.fill(x)
	next := &lanes{idx: make([]int32, d.out), val: make([]float64, d.out)}
	got := make([]float64, d.out)
	d.forwardInto(nil, in, got, next)
	want := refLayer(d, x)
	if !sameBits(got, want) {
		t.Fatalf("in=%d out=%d relu=%v x=%v:\nzero-skip %v\nreference %v", d.in, d.out, d.relu, x, got, want)
	}
	// The lanes of the output list exactly its non-zero entries.
	listed := make([]float64, d.out)
	for j, c := range next.n {
		start := j * next.q
		if j == 4 {
			start = 4 * next.q
		}
		prev := -1
		for k := start; k < start+c; k++ {
			i := int(next.idx[k])
			if i <= prev || (j < 4 && (i%4 != j || i >= 4*next.q)) || (j == 4 && i < 4*next.q) {
				t.Fatalf("lane %d lists index %d out of place (after %d)", j, i, prev)
			}
			prev = i
			listed[i] = next.val[k]
		}
	}
	for i, v := range want {
		if v != 0 && math.Float64bits(listed[i]) != math.Float64bits(v) {
			t.Fatalf("entry %d = %v not listed (got %v)", i, v, listed[i])
		}
	}
}

// TestForwardZeroSkip is the seeded sweep of FuzzForwardZeroSkip: every
// width in zeroSkipWidths, hidden and single-output layers, and inputs
// that are all zero, all −0, mixed edge values, or ordinary.
func TestForwardZeroSkip(t *testing.T) {
	rng := xrand.New(29).Derive("zero-skip")
	for _, in := range zeroSkipWidths {
		for _, out := range []int{1, 3, 8, 9, 256} {
			for _, relu := range []bool{true, false} {
				d := zeroSkipLayer(rng, in, out, relu)
				for trial := 0; trial < 6; trial++ {
					x := make([]float64, in)
					for i := range x {
						switch trial {
						case 0: // all +0
						case 1:
							x[i] = math.Copysign(0, -1)
						case 2:
							x[i] = rng.NormFloat64()
						default:
							x[i] = edgeValue(byte(rng.Intn(256)), rng)
						}
					}
					checkZeroSkipLayer(t, d, x)
				}
			}
		}
	}
}

// FuzzForwardZeroSkip holds the zero-skipping kernel to the dense
// reference bit for bit, one layer per input: the seed draws the weights,
// width and outs pick the shape, and each pattern byte picks one input
// entry's class.
func FuzzForwardZeroSkip(f *testing.F) {
	f.Add(int64(1), uint8(9), uint8(1), []byte{0, 2, 3, 6, 0, 0, 4, 5, 7})
	f.Add(int64(2), uint8(255), uint8(7), []byte{0, 0, 0, 0})
	f.Add(int64(3), uint8(4), uint8(0), []byte{2, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, seed int64, width, outs uint8, pattern []byte) {
		rng := xrand.New(seed).Derive("fuzz-zero-skip")
		in := zeroSkipWidths[int(width)%len(zeroSkipWidths)]
		out := 1 + int(outs)%9
		d := zeroSkipLayer(rng, in, out, outs&0x10 == 0)
		x := make([]float64, in)
		for i := range x {
			code := byte(1) // past the pattern: a run of +0
			if len(pattern) > 0 {
				code = pattern[i%len(pattern)]
			}
			x[i] = edgeValue(code, rng)
		}
		checkZeroSkipLayer(t, d, x)
	})
}

// TestForwardBatchMatchesReference runs whole networks of every width in
// zeroSkipWidths, after a few training epochs, through ForwardBatch and
// requires refForward's bits on every row.
func TestForwardBatchMatchesReference(t *testing.T) {
	for _, h := range zeroSkipWidths {
		for _, outs := range []int{1, 5} {
			net, err := New(Config{Inputs: 6, Outputs: outs, Hidden: []int{h, h + 1, h}, Epochs: 3, Seed: int64(h)})
			if err != nil {
				t.Fatal(err)
			}
			x, y := makeLinearData(11, 6, outs, int64(h))
			if _, err := net.Train(context.Background(), x, y); err != nil {
				t.Fatal(err)
			}
			x[3] = make([]float64, 6) // an all-zero input row
			dst := make([][]float64, len(x))
			for i := range dst {
				dst[i] = make([]float64, outs)
			}
			if err := net.ForwardBatch(x, dst, nil); err != nil {
				t.Fatal(err)
			}
			for r := range x {
				if want := refForward(net, x[r]); !sameBits(dst[r], want) {
					t.Fatalf("hidden %d outs %d row %d: ForwardBatch %v, reference %v", h, outs, r, dst[r], want)
				}
			}
		}
	}
}

// gemmNT is the dense training forward that trainForward replaced, kept
// verbatim as the reference: x·wᵀ + bias over every term, zeros included,
// four rows and two outputs per register block, each output one chain
// from +0 in ascending input index with the bias added last; the rows
// past the last four-row block go through denseInto.
func (d *dense) gemmNT(dst, x []float64, n int) {
	m, k, w, bias, relu := d.out, d.in, d.w, d.b, d.relu
	s := 0
	for ; s+4 <= n; s += 4 {
		x0 := x[(s+0)*k : (s+1)*k]
		x1 := x[(s+1)*k : (s+2)*k]
		x2 := x[(s+2)*k : (s+3)*k]
		x3 := x[(s+3)*k : (s+4)*k]
		d0 := dst[(s+0)*m : (s+1)*m]
		d1 := dst[(s+1)*m : (s+2)*m]
		d2 := dst[(s+2)*m : (s+3)*m]
		d3 := dst[(s+3)*m : (s+4)*m]
		o := 0
		// 4×2 register block: two weight rows share each loaded input
		// value, doubling the flops per load over a 4×1 kernel.
		for ; o+2 <= m; o += 2 {
			wa := w[(o+0)*k : (o+1)*k]
			// Reslice every co-indexed row to wa's length so the compiler
			// drops the five per-iteration bounds checks.
			wb := w[(o+1)*k : (o+1)*k+k][:len(wa)]
			y0, y1, y2, y3 := x0[:len(wa)], x1[:len(wa)], x2[:len(wa)], x3[:len(wa)]
			var a0, a1, a2, a3, b0, b1, b2, b3 float64
			for i, wav := range wa {
				wbv := wb[i]
				v0, v1, v2, v3 := y0[i], y1[i], y2[i], y3[i]
				a0 += v0 * wav
				a1 += v1 * wav
				a2 += v2 * wav
				a3 += v3 * wav
				b0 += v0 * wbv
				b1 += v1 * wbv
				b2 += v2 * wbv
				b3 += v3 * wbv
			}
			ba, bb := bias[o], bias[o+1]
			a0 += ba
			a1 += ba
			a2 += ba
			a3 += ba
			b0 += bb
			b1 += bb
			b2 += bb
			b3 += bb
			if relu {
				a0, a1, a2, a3 = relu0(a0), relu0(a1), relu0(a2), relu0(a3)
				b0, b1, b2, b3 = relu0(b0), relu0(b1), relu0(b2), relu0(b3)
			}
			d0[o], d1[o], d2[o], d3[o] = a0, a1, a2, a3
			d0[o+1], d1[o+1], d2[o+1], d3[o+1] = b0, b1, b2, b3
		}
		for ; o < m; o++ {
			wo := w[o*k : o*k+k]
			var c0, c1, c2, c3 float64
			for i, wv := range wo {
				c0 += x0[i] * wv
				c1 += x1[i] * wv
				c2 += x2[i] * wv
				c3 += x3[i] * wv
			}
			bv := bias[o]
			c0 += bv
			c1 += bv
			c2 += bv
			c3 += bv
			if relu {
				c0, c1, c2, c3 = relu0(c0), relu0(c1), relu0(c2), relu0(c3)
			}
			d0[o], d1[o], d2[o], d3[o] = c0, c1, c2, c3
		}
	}
	// Remainder rows take the dense one-row loop, in the inference
	// kernel's summation order.
	for ; s < n; s++ {
		d.denseInto(x[s*k:(s+1)*k], dst[s*m:(s+1)*m])
	}
}

// trainForwardWidths hits every remainder of the four-output pass (1–9,
// 11) and the paper width, as inputs and as outputs.
var trainForwardWidths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 256}

// trainForwardBatches hits every count of rows past the last four-row
// block (1–9) and a full mini-batch of 32 with and without one more row.
var trainForwardBatches = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 32, 33}

// checkTrainForward holds trainForward on the n-row batch x to gemmNT
// bit for bit.
func checkTrainForward(t *testing.T, d *dense, x []float64, n int) {
	t.Helper()
	want := make([]float64, n*d.out)
	d.gemmNT(want, x, n)
	got := make([]float64, n*d.out)
	d.trainForward(got, x, n, make([]int32, d.in), make([]float64, d.in))
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			r, o := i/d.out, i%d.out
			t.Fatalf("in=%d out=%d relu=%v batch=%d row %d output %d: zero-skip %v, reference %v\nrow %v",
				d.in, d.out, d.relu, n, r, o, got[i], want[i], x[r*d.in:(r+1)*d.in])
		}
	}
}

// TestTrainForwardZeroSkip is the seeded sweep of
// FuzzTrainForwardZeroSkip: every width in trainForwardWidths as input and
// output, every batch size in trainForwardBatches, hidden and linear
// layers. Each batch mixes all +0 rows, all −0 rows, rows of runs of edge
// values (±0, subnormals, tiny normals) and ordinary rows.
func TestTrainForwardZeroSkip(t *testing.T) {
	rng := xrand.New(31).Derive("train-forward")
	for _, in := range trainForwardWidths {
		for _, out := range trainForwardWidths {
			for _, relu := range []bool{true, false} {
				d := zeroSkipLayer(rng, in, out, relu)
				for _, n := range trainForwardBatches {
					for trial := 0; trial < 4; trial++ {
						x := make([]float64, n*in)
						for r := 0; r < n; r++ {
							row := x[r*in : (r+1)*in]
							switch (r + trial) % 4 {
							case 0: // all +0
							case 1:
								for i := range row {
									row[i] = math.Copysign(0, -1)
								}
							case 2:
								for i := 0; i < in; {
									code := byte(rng.Intn(256))
									for run := 1 + rng.Intn(6); run > 0 && i < in; run-- {
										row[i] = edgeValue(code, rng)
										i++
									}
								}
							default:
								for i := range row {
									row[i] = rng.NormFloat64()
								}
							}
						}
						checkTrainForward(t, d, x, n)
					}
				}
			}
		}
	}
}

// FuzzTrainForwardZeroSkip holds the zero-skipping training forward to
// the dense reference bit for bit, one layer and batch per input: the
// seed draws the weights, width, outs and batch pick the shape (outs's
// top bit makes the layer linear), and each pattern byte picks one input
// entry's class, cycling over the whole batch.
func FuzzTrainForwardZeroSkip(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(10), uint8(10), []byte{6, 2, 3, 6, 0, 0, 4, 5})
	f.Add(int64(2), uint8(10), uint8(10), uint8(9), []byte{0, 0, 0, 0})
	f.Add(int64(3), uint8(3), uint8(0x84), uint8(6), []byte{2, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, seed int64, width, outs, batch uint8, pattern []byte) {
		rng := xrand.New(seed).Derive("fuzz-train-forward")
		in := trainForwardWidths[int(width)%len(trainForwardWidths)]
		out := trainForwardWidths[int(outs&0x7f)%len(trainForwardWidths)]
		n := trainForwardBatches[int(batch)%len(trainForwardBatches)]
		d := zeroSkipLayer(rng, in, out, outs&0x80 == 0)
		x := make([]float64, n*in)
		for i := range x {
			code := byte(1) // past the pattern: a run of +0
			if len(pattern) > 0 {
				code = pattern[i%len(pattern)]
			}
			x[i] = edgeValue(code, rng)
		}
		checkTrainForward(t, d, x, n)
	})
}
