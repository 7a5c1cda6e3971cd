package nn

import (
	"context"
	"errors"
	"math"
	"testing"

	"sizeless/internal/xrand"
)

// makeLinearData builds y = A x + c with optional noise.
func makeLinearData(n, inputs, outputs int, seed int64) (x, y [][]float64) {
	rng := xrand.New(seed).Derive("data")
	a := make([][]float64, outputs)
	for o := range a {
		a[o] = make([]float64, inputs)
		for i := range a[o] {
			a[o][i] = rng.Uniform(-1, 1)
		}
	}
	x = make([][]float64, n)
	y = make([][]float64, n)
	for s := 0; s < n; s++ {
		x[s] = make([]float64, inputs)
		for i := range x[s] {
			x[s][i] = rng.Uniform(-2, 2)
		}
		y[s] = make([]float64, outputs)
		for o := range y[s] {
			v := 0.3
			for i := range x[s] {
				v += a[o][i] * x[s][i]
			}
			y[s][o] = v
		}
	}
	return x, y
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Inputs: 0, Outputs: 1},
		{Inputs: 1, Outputs: 0},
		{Inputs: 1, Outputs: 1, Hidden: []int{0}},
		{Inputs: 1, Outputs: 1, Optimizer: "momentum"},
		{Inputs: 1, Outputs: 1, Loss: "huber"},
		{Inputs: 1, Outputs: 1, L2: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	if _, err := New(Config{Inputs: 3, Outputs: 2, Hidden: []int{8}}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestLearnsLinearFunction(t *testing.T) {
	x, y := makeLinearData(300, 4, 2, 1)
	for _, opt := range []Optimizer{SGD, Adam, Adagrad} {
		opt := opt
		t.Run(string(opt), func(t *testing.T) {
			net, err := New(Config{
				Inputs: 4, Outputs: 2, Hidden: []int{32, 32},
				Optimizer: opt, Loss: MSE, Epochs: 300, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			loss, err := net.Train(context.Background(), x, y)
			if err != nil {
				t.Fatal(err)
			}
			if loss > 0.02 {
				t.Errorf("%s final training MSE = %v, want < 0.02", opt, loss)
			}
		})
	}
}

func TestLossFunctions(t *testing.T) {
	// Verify loss values directly via lossAndGrad.
	net, err := New(Config{Inputs: 1, Outputs: 2, Loss: MSE})
	if err != nil {
		t.Fatal(err)
	}
	pred := []float64{1, 3}
	truth := []float64{2, 1}
	loss, grad := net.lossAndGrad(pred, truth)
	if want := (1.0 + 4.0) / 2; math.Abs(loss-want) > 1e-12 {
		t.Errorf("MSE loss = %v, want %v", loss, want)
	}
	if math.Abs(grad[0]-(-1)) > 1e-12 || math.Abs(grad[1]-2) > 1e-12 {
		t.Errorf("MSE grad = %v", grad)
	}

	net.cfg.Loss = MAE
	loss, grad = net.lossAndGrad(pred, truth)
	if want := (1.0 + 2.0) / 2; math.Abs(loss-want) > 1e-12 {
		t.Errorf("MAE loss = %v, want %v", loss, want)
	}
	if grad[0] != -0.5 || grad[1] != 0.5 {
		t.Errorf("MAE grad = %v", grad)
	}

	net.cfg.Loss = MAPE
	loss, _ = net.lossAndGrad(pred, truth)
	if want := (1.0/2 + 2.0/1) / 2; math.Abs(loss-want) > 1e-12 {
		t.Errorf("MAPE loss = %v, want %v", loss, want)
	}
}

// Gradient check: backprop gradients must match numerical differentiation.
func TestGradientCheck(t *testing.T) {
	for _, loss := range []Loss{MSE, MAPE} {
		loss := loss
		t.Run(string(loss), func(t *testing.T) {
			net, err := New(Config{
				Inputs: 3, Outputs: 2, Hidden: []int{5},
				Optimizer: SGD, Loss: loss, LearningRate: 0, // no update
				Epochs: 1, BatchSize: 1, Seed: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			x := [][]float64{{0.5, -0.3, 0.8}}
			y := [][]float64{{0.7, 1.2}}

			// Analytic gradients straight from the batch engine: run one
			// trainBatch step and read the averaged gradients out of the
			// scratch (batch size 1, L2 = 0, so the accumulators hold
			// exactly dL/dw). The step's weight update is rolled back so
			// the numeric check runs at the gradient's evaluation point.
			savedW := make([][]float64, len(net.layers))
			savedB := make([][]float64, len(net.layers))
			for li, l := range net.layers {
				savedW[li] = append([]float64(nil), l.w...)
				savedB[li] = append([]float64(nil), l.b...)
			}
			ts := &TrainScratch{}
			ts.ensure(net, 1)
			net.ensureOptState()
			net.trainBatch(x, y, []int{0}, ts)
			for li, l := range net.layers {
				copy(l.w, savedW[li])
				copy(l.b, savedB[li])
			}

			// Numerical check on every weight.
			const h = 1e-6
			lossAt := func() float64 {
				pred, err := net.Predict(x[0])
				if err != nil {
					t.Fatal(err)
				}
				l, _ := net.lossAndGrad(pred, y[0])
				return l
			}
			for li, l := range net.layers {
				for o := 0; o < l.out; o++ {
					for i := 0; i < l.in; i++ {
						orig := l.w[o*l.in+i]
						l.w[o*l.in+i] = orig + h
						up := lossAt()
						l.w[o*l.in+i] = orig - h
						down := lossAt()
						l.w[o*l.in+i] = orig
						numeric := (up - down) / (2 * h)
						analytic := ts.gradW[li][o*l.in+i]
						if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
							t.Fatalf("layer %d w[%d][%d]: analytic %v vs numeric %v", li, o, i, analytic, numeric)
						}
					}
				}
			}
		})
	}
}

func TestTrainErrors(t *testing.T) {
	net, err := New(Config{Inputs: 2, Outputs: 1, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Train(context.Background(), nil, nil); err == nil {
		t.Error("empty training data should error")
	}
	if _, err := net.Train(context.Background(), [][]float64{{1, 2}}, [][]float64{{1}, {2}}); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := net.Train(context.Background(), [][]float64{{1}}, [][]float64{{1}}); err == nil {
		t.Error("wrong feature width should error")
	}
	if _, err := net.Train(context.Background(), [][]float64{{1, 2}}, [][]float64{{1, 2}}); err == nil {
		t.Error("wrong target width should error")
	}
	if _, err := net.Predict([]float64{1}); err == nil {
		t.Error("wrong predict width should error")
	}
}

func TestTrainingDeterministic(t *testing.T) {
	x, y := makeLinearData(100, 3, 1, 5)
	train := func() []float64 {
		net, err := New(Config{Inputs: 3, Outputs: 1, Hidden: []int{16}, Epochs: 20, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Train(context.Background(), x, y); err != nil {
			t.Fatal(err)
		}
		pred, err := net.Predict(x[0])
		if err != nil {
			t.Fatal(err)
		}
		return pred
	}
	a, b := train(), train()
	if a[0] != b[0] {
		t.Error("training is not deterministic under a fixed seed")
	}
}

func TestL2ShrinksWeights(t *testing.T) {
	x, y := makeLinearData(150, 4, 1, 9)
	norm := func(l2 float64) float64 {
		net, err := New(Config{Inputs: 4, Outputs: 1, Hidden: []int{16}, Epochs: 60, Seed: 2, L2: l2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Train(context.Background(), x, y); err != nil {
			t.Fatal(err)
		}
		var s float64
		for _, layer := range net.layers {
			for _, w := range layer.w {
				s += w * w
			}
		}
		return s
	}
	if n0, n1 := norm(0), norm(0.05); n1 >= n0 {
		t.Errorf("L2 should shrink weight norm: %v vs %v", n0, n1)
	}
}

func TestEvalLoss(t *testing.T) {
	x, y := makeLinearData(100, 3, 2, 4)
	net, err := New(Config{Inputs: 3, Outputs: 2, Hidden: []int{32}, Epochs: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	before, err := evalLoss(net, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Train(context.Background(), x, y); err != nil {
		t.Fatal(err)
	}
	after, err := evalLoss(net, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("training should reduce eval loss: %v -> %v", before, after)
	}
	if _, err := evalLoss(net, nil, nil); err == nil {
		t.Error("empty eval should error")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	x, y := makeLinearData(80, 3, 2, 8)
	net, err := New(Config{Inputs: 3, Outputs: 2, Hidden: []int{8, 8}, Epochs: 30, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Train(context.Background(), x, y); err != nil {
		t.Fatal(err)
	}
	b, err := net.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := parseNetwork(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p1, err := net.Predict(x[i])
		if err != nil {
			t.Fatal(err)
		}
		p2, err := back.Predict(x[i])
		if err != nil {
			t.Fatal(err)
		}
		for j := range p1 {
			if p1[j] != p2[j] {
				t.Fatalf("loaded network predicts differently at sample %d", i)
			}
		}
	}
	if _, err := parseNetwork([]byte("{bad json")); err == nil {
		t.Error("corrupt input should error")
	}
}

// TestLoadRejectsShapeMismatch feeds the network reader configs whose declared layer
// widths disagree with the serialized weights. The first input once
// panicked while New sized a 4e9 × 4e9 layer for its config.
func TestLoadRejectsShapeMismatch(t *testing.T) {
	cases := map[string]string{
		"huge config, no weights": `{"config":{"Inputs":4000000000,"Outputs":4000000000,"Optimizer":"adam","Loss":"mse"},"weights":[],"biases":[]}`,
		"zero width":              `{"config":{"Inputs":0,"Outputs":1},"weights":[[[]]],"biases":[[0]]}`,
		"missing layer":           `{"config":{"Inputs":1,"Outputs":1,"Hidden":[2]},"weights":[[[1],[1]]],"biases":[[0,0]]}`,
		"short bias":              `{"config":{"Inputs":1,"Outputs":2},"weights":[[[1],[1]]],"biases":[[0]]}`,
		"narrow row":              `{"config":{"Inputs":2,"Outputs":1},"weights":[[[1]]],"biases":[[0]]}`,
	}
	for name, in := range cases {
		if _, err := parseNetwork([]byte(in)); err == nil {
			t.Errorf("%s: accepted %s", name, in)
		}
	}
	ok := `{"config":{"Inputs":2,"Outputs":1},"weights":[[[1,2]]],"biases":[[3]]}`
	net, err := parseNetwork([]byte(ok))
	if err != nil {
		t.Fatal(err)
	}
	if p, err := net.Predict([]float64{1, 1}); err != nil || p[0] != 6 {
		t.Errorf("Predict = %v, %v; want [6]", p, err)
	}
}

func TestScaler(t *testing.T) {
	x := [][]float64{{1, 10, 5}, {3, 10, 7}, {5, 10, 9}}
	s, err := FitScaler(x)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean[0] != 3 || s.Mean[1] != 10 || s.Mean[2] != 7 {
		t.Errorf("means = %v", s.Mean)
	}
	// Constant column gets divisor 1.
	if s.Std[1] != 1 {
		t.Errorf("constant column std = %v, want 1", s.Std[1])
	}
	tr, err := s.TransformBatch(x)
	if err != nil {
		t.Fatal(err)
	}
	// Standardized column 0 has mean 0.
	m := (tr[0][0] + tr[1][0] + tr[2][0]) / 3
	if math.Abs(m) > 1e-12 {
		t.Errorf("standardized mean = %v", m)
	}
	// Round trip.
	for j, v := range tr[0] {
		if inv := v*s.Std[j] + s.Mean[j]; math.Abs(inv-x[0][j]) > 1e-9 {
			t.Errorf("inverse transform mismatch at %d: %v vs %v", j, inv, x[0][j])
		}
	}
	// Errors.
	if _, err := FitScaler(nil); err == nil {
		t.Error("empty fit should error")
	}
	if _, err := s.Transform([]float64{1}); err == nil {
		t.Error("width mismatch should error")
	}
	if _, err := FitScaler([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged matrix should error")
	}
}

func TestMAPETrainingOnRatioTargets(t *testing.T) {
	// The paper's targets are execution-time ratios near [0.1, 10]; verify
	// the MAPE loss trains successfully on positive targets.
	rng := xrand.New(3).Derive("ratio")
	n := 200
	x := make([][]float64, n)
	y := make([][]float64, n)
	for i := 0; i < n; i++ {
		f := rng.Uniform(0, 1)
		x[i] = []float64{f}
		// Ratio shrinks with f, like speedup vs CPU share.
		y[i] = []float64{0.2 + 2*f}
	}
	net, err := New(Config{Inputs: 1, Outputs: 1, Hidden: []int{16, 16}, Loss: MAPE, Epochs: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	loss, err := net.Train(context.Background(), x, y)
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.05 {
		t.Errorf("MAPE after training = %v, want < 0.05", loss)
	}
}

// lossAndGrad returns the per-sample loss and a fresh dL/dpred slice.
func (n *Network) lossAndGrad(pred, truth []float64) (float64, []float64) {
	grad := make([]float64, len(pred))
	loss := n.lossAndGradInto(pred, truth, grad)
	return loss, grad
}

// evalLoss computes the mean loss of the network's predictions on (x, y)
// one row at a time through Predict: a path independent of the training
// session's validation pass.
func evalLoss(n *Network, x, y [][]float64) (float64, error) {
	if len(x) == 0 || len(x) != len(y) {
		return 0, errors.New("nn: empty or mismatched eval data")
	}
	var total float64
	for i := range x {
		pred, err := n.Predict(x[i])
		if err != nil {
			return 0, err
		}
		loss, _ := n.lossAndGrad(pred, y[i])
		total += loss
	}
	return total / float64(len(x)), nil
}
