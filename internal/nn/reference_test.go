package nn

// This file preserves the retired per-sample SGD engine verbatim (nested
// [][]float64 weights, per-sample forward/backward, per-batch gradient
// allocation) as an executable reference: the parity tests assert that the
// flat-weight mini-batch GEMM engine reproduces it within floating-point
// tolerance under a fixed seed, and BenchmarkTrainEpochSeed scores the new
// engine against it in BENCH_train.json.

import (
	"context"
	"math"
	"testing"

	"sizeless/internal/xrand"
)

// refDense is the retired nested-slice layer.
type refDense struct {
	in, out int
	w       [][]float64
	b       []float64
	relu    bool
	mW, vW  [][]float64
	mB, vB  []float64
}

// refNet is the retired per-sample training engine.
type refNet struct {
	cfg    Config
	layers []*refDense
	step   int
	frozen int
}

// newRefNet replicates the retired constructor, drawing the identical
// init sequence as New for the same config.
func newRefNet(cfg Config) *refNet {
	cfg = cfg.withDefaults()
	rng := xrand.New(cfg.Seed).Derive("nn-init")
	sizes := append([]int{cfg.Inputs}, cfg.Hidden...)
	sizes = append(sizes, cfg.Outputs)
	n := &refNet{cfg: cfg}
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		d := &refDense{in: in, out: out, relu: l+2 < len(sizes)}
		d.w = make([][]float64, out)
		d.mW = make([][]float64, out)
		d.vW = make([][]float64, out)
		scale := math.Sqrt(2.0 / float64(in))
		for o := 0; o < out; o++ {
			d.w[o] = make([]float64, in)
			d.mW[o] = make([]float64, in)
			d.vW[o] = make([]float64, in)
			for i := 0; i < in; i++ {
				d.w[o][i] = rng.NormFloat64() * scale
			}
		}
		d.b = make([]float64, out)
		d.mB = make([]float64, out)
		d.vB = make([]float64, out)
		n.layers = append(n.layers, d)
	}
	return n
}

func (d *refDense) forward(x []float64) (a, z []float64) {
	z = make([]float64, d.out)
	for o := 0; o < d.out; o++ {
		s := d.b[o]
		w := d.w[o]
		for i, xv := range x {
			s += w[i] * xv
		}
		z[o] = s
	}
	if !d.relu {
		return z, z
	}
	a = make([]float64, d.out)
	for o, v := range z {
		if v > 0 {
			a[o] = v
		}
	}
	return a, z
}

func (n *refNet) predict(x []float64) []float64 {
	a := x
	for _, l := range n.layers {
		a, _ = l.forward(a)
	}
	return a
}

// lossAndGrad mirrors Network.lossAndGrad over the reference config.
func (n *refNet) lossAndGrad(pred, truth []float64) (float64, []float64) {
	helper := &Network{cfg: n.cfg}
	return helper.lossAndGrad(pred, truth)
}

// train replicates the retired Train loop: per-sample forward/backward
// with freshly allocated per-batch gradients.
func (n *refNet) train(x, y [][]float64, epochs int) float64 {
	rng := xrand.New(n.cfg.Seed).Derive("nn-shuffle")
	var lastLoss float64
	for epoch := 0; epoch < epochs; epoch++ {
		perm := rng.Perm(len(x))
		var epochLoss float64
		for start := 0; start < len(perm); start += n.cfg.BatchSize {
			end := start + n.cfg.BatchSize
			if end > len(perm) {
				end = len(perm)
			}
			epochLoss += n.trainBatch(x, y, perm[start:end])
		}
		lastLoss = epochLoss / float64(len(x))
	}
	return lastLoss
}

func (n *refNet) trainBatch(x, y [][]float64, batch []int) float64 {
	gradW := make([][][]float64, len(n.layers))
	gradB := make([][]float64, len(n.layers))
	for li, l := range n.layers {
		gradW[li] = make([][]float64, l.out)
		for o := range gradW[li] {
			gradW[li][o] = make([]float64, l.in)
		}
		gradB[li] = make([]float64, l.out)
	}

	var total float64
	for _, idx := range batch {
		acts := make([][]float64, len(n.layers)+1)
		zs := make([][]float64, len(n.layers))
		acts[0] = x[idx]
		for li, l := range n.layers {
			a, z := l.forward(acts[li])
			acts[li+1] = a
			zs[li] = z
		}
		loss, grad := n.lossAndGrad(acts[len(n.layers)], y[idx])
		total += loss

		delta := grad
		for li := len(n.layers) - 1; li >= 0; li-- {
			l := n.layers[li]
			if l.relu {
				for o := range delta {
					if zs[li][o] <= 0 {
						delta[o] = 0
					}
				}
			}
			in := acts[li]
			for o, dv := range delta {
				if dv == 0 {
					continue
				}
				row := gradW[li][o]
				for i, iv := range in {
					row[i] += dv * iv
				}
				gradB[li][o] += dv
			}
			if li > 0 {
				prev := make([]float64, l.in)
				for o, dv := range delta {
					if dv == 0 {
						continue
					}
					w := l.w[o]
					for i := range prev {
						prev[i] += dv * w[i]
					}
				}
				delta = prev
			}
		}
	}

	bs := float64(len(batch))
	for li, l := range n.layers {
		for o := 0; o < l.out; o++ {
			for i := 0; i < l.in; i++ {
				gradW[li][o][i] = gradW[li][o][i]/bs + n.cfg.L2*l.w[o][i]
			}
			gradB[li][o] /= bs
		}
	}

	n.step++
	n.applyGradients(gradW, gradB)
	return total
}

func (n *refNet) applyGradients(gradW [][][]float64, gradB [][]float64) {
	lr := n.cfg.LearningRate
	const (
		beta1 = 0.9
		beta2 = 0.999
		eps   = 1e-8
	)
	switch n.cfg.Optimizer {
	case SGD:
		for li, l := range n.layers {
			if li < n.frozen {
				continue
			}
			for o := 0; o < l.out; o++ {
				for i := 0; i < l.in; i++ {
					l.w[o][i] -= lr * gradW[li][o][i]
				}
				l.b[o] -= lr * gradB[li][o]
			}
		}
	case Adagrad:
		for li, l := range n.layers {
			if li < n.frozen {
				continue
			}
			for o := 0; o < l.out; o++ {
				for i := 0; i < l.in; i++ {
					g := gradW[li][o][i]
					l.vW[o][i] += g * g
					l.w[o][i] -= lr * g / (math.Sqrt(l.vW[o][i]) + eps)
				}
				g := gradB[li][o]
				l.vB[o] += g * g
				l.b[o] -= lr * g / (math.Sqrt(l.vB[o]) + eps)
			}
		}
	case Adam:
		t := float64(n.step)
		c1 := 1 - math.Pow(beta1, t)
		c2 := 1 - math.Pow(beta2, t)
		for li, l := range n.layers {
			if li < n.frozen {
				continue
			}
			for o := 0; o < l.out; o++ {
				for i := 0; i < l.in; i++ {
					g := gradW[li][o][i]
					l.mW[o][i] = beta1*l.mW[o][i] + (1-beta1)*g
					l.vW[o][i] = beta2*l.vW[o][i] + (1-beta2)*g*g
					l.w[o][i] -= lr * (l.mW[o][i] / c1) / (math.Sqrt(l.vW[o][i]/c2) + eps)
				}
				g := gradB[li][o]
				l.mB[o] = beta1*l.mB[o] + (1-beta1)*g
				l.vB[o] = beta2*l.vB[o] + (1-beta2)*g*g
				l.b[o] -= lr * (l.mB[o] / c1) / (math.Sqrt(l.vB[o]/c2) + eps)
			}
		}
	}
}

// relClose reports |a-b| <= tol·(1+max(|a|,|b|)).
func relClose(a, b, tol float64) bool {
	scale := math.Abs(a)
	if m := math.Abs(b); m > scale {
		scale = m
	}
	return math.Abs(a-b) <= tol*(1+scale)
}

// TestEngineParityWithRetiredLoop trains the mini-batch GEMM engine and
// the retired per-sample loop from the same seed and asserts loss, weight,
// and prediction parity within floating-point tolerance — the old engine's
// only legitimate deviations are dot-product reassociation, which the
// optimizers amplify but do not diverge.
func TestEngineParityWithRetiredLoop(t *testing.T) {
	x, y := makeLinearData(90, 7, 3, 21)
	for _, opt := range []Optimizer{SGD, Adam, Adagrad} {
		for _, loss := range []Loss{MSE, MAPE} {
			t.Run(string(opt)+"/"+string(loss), func(t *testing.T) {
				cfg := Config{
					Inputs: 7, Outputs: 3, Hidden: []int{24, 24},
					Optimizer: opt, Loss: loss, Epochs: 40, Seed: 5, L2: 0.01,
				}
				net, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				gotLoss, err := net.Train(context.Background(), x, y)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefNet(cfg)
				wantLoss := ref.train(x, y, ref.cfg.Epochs)

				const tol = 1e-6
				if !relClose(gotLoss, wantLoss, tol) {
					t.Errorf("final loss: engine %v vs retired %v", gotLoss, wantLoss)
				}
				for li, l := range net.layers {
					rl := ref.layers[li]
					for o := 0; o < l.out; o++ {
						for i := 0; i < l.in; i++ {
							if !relClose(l.w[o*l.in+i], rl.w[o][i], tol) {
								t.Fatalf("layer %d w[%d][%d]: engine %v vs retired %v",
									li, o, i, l.w[o*l.in+i], rl.w[o][i])
							}
						}
						if !relClose(l.b[o], rl.b[o], tol) {
							t.Fatalf("layer %d b[%d]: engine %v vs retired %v", li, o, l.b[o], rl.b[o])
						}
					}
				}
				for s := 0; s < 5; s++ {
					got, err := net.Predict(x[s])
					if err != nil {
						t.Fatal(err)
					}
					want := ref.predict(x[s])
					for j := range got {
						if !relClose(got[j], want[j], tol) {
							t.Fatalf("sample %d output %d: engine %v vs retired %v", s, j, got[j], want[j])
						}
					}
				}
			})
		}
	}
}

// TestEngineParityOddBatch covers the GEMM remainder kernel: a dataset
// size that is not a multiple of 4 or of the batch size.
func TestEngineParityOddBatch(t *testing.T) {
	x, y := makeLinearData(53, 5, 2, 31)
	cfg := Config{
		Inputs: 5, Outputs: 2, Hidden: []int{17}, BatchSize: 10,
		Optimizer: Adam, Loss: MSE, Epochs: 25, Seed: 9,
	}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotLoss, err := net.Train(context.Background(), x, y)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefNet(cfg)
	wantLoss := ref.train(x, y, ref.cfg.Epochs)
	if !relClose(gotLoss, wantLoss, 1e-6) {
		t.Errorf("final loss: engine %v vs retired %v", gotLoss, wantLoss)
	}
	got, err := net.Predict(x[3])
	if err != nil {
		t.Fatal(err)
	}
	want := ref.predict(x[3])
	for j := range got {
		if !relClose(got[j], want[j], 1e-6) {
			t.Errorf("output %d: engine %v vs retired %v", j, got[j], want[j])
		}
	}
}

// TestFrozenLayersUntouched asserts the freeze is absolute: weights,
// biases, and optimizer moments of frozen layers stay bit-identical
// through training, proving the backward pass skips them rather than
// merely zeroing their update.
func TestFrozenLayersUntouched(t *testing.T) {
	x, y := makeLinearData(60, 4, 2, 13)
	net, err := New(Config{
		Inputs: 4, Outputs: 2, Hidden: []int{16, 16, 16},
		Optimizer: Adam, Epochs: 5, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Train(context.Background(), x, y); err != nil {
		t.Fatal(err)
	}
	const freeze = 2
	if err := net.SetFrozenLayers(freeze); err != nil {
		t.Fatal(err)
	}
	type snap struct{ w, b, mW, vW []float64 }
	before := make([]snap, freeze)
	for li := 0; li < freeze; li++ {
		l := net.layers[li]
		before[li] = snap{
			w:  append([]float64(nil), l.w...),
			b:  append([]float64(nil), l.b...),
			mW: append([]float64(nil), l.mW...),
			vW: append([]float64(nil), l.vW...),
		}
	}
	if _, err := runSession(context.Background(), net, x, y, 10, Validation{}); err != nil {
		t.Fatal(err)
	}
	for li := 0; li < freeze; li++ {
		l := net.layers[li]
		for i := range l.w {
			if l.w[i] != before[li].w[i] {
				t.Fatalf("frozen layer %d weight %d changed", li, i)
			}
			if l.mW[i] != before[li].mW[i] || l.vW[i] != before[li].vW[i] {
				t.Fatalf("frozen layer %d moment %d changed", li, i)
			}
		}
		for o := range l.b {
			if l.b[o] != before[li].b[o] {
				t.Fatalf("frozen layer %d bias %d changed", li, o)
			}
		}
	}
	// The unfrozen tail must still have moved.
	moved := false
	lTail := net.layers[freeze]
	for i := range lTail.w {
		if lTail.w[i] != 0 && lTail.mW[i] != 0 {
			moved = true
			break
		}
	}
	if !moved {
		t.Error("unfrozen layers did not train")
	}
}

// countdownCtx is a context whose Err trips after a fixed number of polls
// — a deterministic stand-in for "cancelled mid-training" (the engine
// polls once per epoch).
type countdownCtx struct {
	context.Context
	remaining int
}

func (c *countdownCtx) Err() error {
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

// TestCancelMidTrainingLeavesNetworkUsable asserts that a context
// cancellation observed at an epoch boundary returns the context error but
// leaves the network consistent: it predicts, keeps training, and matches
// a run that was never cancelled up to the same epoch count.
func TestCancelMidTrainingLeavesNetworkUsable(t *testing.T) {
	x, y := makeLinearData(80, 3, 1, 23)
	cfg := Config{Inputs: 3, Outputs: 1, Hidden: []int{12}, Epochs: 50, Seed: 3}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const completed = 7
	ctx := &countdownCtx{Context: context.Background(), remaining: completed}
	if _, err := net.Train(ctx, x, y); err == nil {
		t.Fatal("cancelled training should return the context error")
	}
	// Usable for inference…
	if _, err := net.Predict(x[0]); err != nil {
		t.Fatalf("predict after cancellation: %v", err)
	}
	// …and for continued training.
	if _, err := runSession(context.Background(), net, x, y, 3, Validation{}); err != nil {
		t.Fatalf("continued training after cancellation: %v", err)
	}
	// The cancelled run stopped exactly at an epoch boundary: its weights
	// at cancellation match an uninterrupted run of `completed` epochs.
	net2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx2 := &countdownCtx{Context: context.Background(), remaining: completed}
	_, _ = net2.Train(ctx2, x, y)
	net3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runSession(context.Background(), net3, x, y, completed, Validation{}); err != nil {
		t.Fatal(err)
	}
	for li := range net2.layers {
		for i := range net2.layers[li].w {
			if net2.layers[li].w[i] != net3.layers[li].w[i] {
				t.Fatalf("cancelled run diverged from %d-epoch run at layer %d weight %d", completed, li, i)
			}
		}
	}
}

// TestConcurrentMultiSeedTraining trains independent seeds concurrently
// (sharing the read-only dataset and the package scratch pool) and asserts
// each result is bit-identical to its sequential twin — the -race CI job
// runs this at full strength.
func TestConcurrentMultiSeedTraining(t *testing.T) {
	x, y := makeLinearData(70, 4, 2, 41)
	train := func(seed int64) *Network {
		net, err := New(Config{
			Inputs: 4, Outputs: 2, Hidden: []int{20, 20},
			Optimizer: Adam, Epochs: 15, Seed: seed,
		})
		if err != nil {
			t.Error(err)
			return nil
		}
		if _, err := net.Train(context.Background(), x, y); err != nil {
			t.Error(err)
			return nil
		}
		return net
	}
	const n = 6
	concurrent := make([]*Network, n)
	done := make(chan struct{})
	for g := 0; g < n; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			concurrent[g] = train(int64(g + 1))
		}(g)
	}
	for g := 0; g < n; g++ {
		<-done
	}
	for g := 0; g < n; g++ {
		sequential := train(int64(g + 1))
		if concurrent[g] == nil || sequential == nil {
			t.Fatal("training failed")
		}
		for li := range sequential.layers {
			for i := range sequential.layers[li].w {
				if concurrent[g].layers[li].w[i] != sequential.layers[li].w[i] {
					t.Fatalf("seed %d: concurrent result differs from sequential at layer %d weight %d", g+1, li, i)
				}
			}
		}
	}
}

// TestTrainZeroSteadyStateAllocs asserts the headline engine property:
// once the scratch is warm, an epoch allocates nothing.
func TestTrainZeroSteadyStateAllocs(t *testing.T) {
	x, y := makeLinearData(64, 6, 2, 51)
	net, err := New(Config{Inputs: 6, Outputs: 2, Hidden: []int{32, 32}, Epochs: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := &TrainScratch{}
	ctx := context.Background()
	train := func(epochs int) {
		s, err := net.NewSession(x, y, epochs, Validation{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Train(ctx, epochs, ts); err != nil {
			t.Fatal(err)
		}
	}
	train(1) // warm-up: grows scratch and optimizer state
	// Each call pays a fixed setup cost (the session); the epochs
	// themselves must add nothing, so a 1-epoch and an 11-epoch call
	// allocate the same.
	oneEpoch := testing.AllocsPerRun(5, func() { train(1) })
	elevenEpochs := testing.AllocsPerRun(5, func() { train(11) })
	if elevenEpochs > oneEpoch+1 {
		t.Errorf("10 extra epochs allocated %v extra times, want 0", elevenEpochs-oneEpoch)
	}
}
