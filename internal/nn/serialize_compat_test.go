package nn

import (
	"context"
	"encoding/json"
	"testing"
)

// legacyModelJSON is a model file written by the retired nested-slice
// engine (PR 1 vintage): a 2→2→1 network with hand-picked weights. The
// flat-weight engine must load it unchanged.
const legacyModelJSON = `{
  "config": {"Inputs": 2, "Outputs": 1, "Hidden": [2],
             "Optimizer": "adam", "Loss": "mse", "L2": 0, "Epochs": 1,
             "LearningRate": 0.001, "BatchSize": 32, "Seed": 7},
  "weights": [[[0.5, -0.25], [1.5, 2.0]], [[0.75, -1.0]]],
  "biases": [[0.1, -0.2], [0.3]]
}`

func TestLoadLegacyNestedWeightFile(t *testing.T) {
	net, err := parseNetwork([]byte(legacyModelJSON))
	if err != nil {
		t.Fatal(err)
	}
	// Forward by hand: h = relu(W1·x + b1), out = W2·h + b2.
	x := []float64{2, 4}
	h0 := 0.5*2 + -0.25*4 + 0.1 // = 0.1
	h1 := 1.5*2 + 2.0*4 + -0.2  // = 10.8
	want := 0.75*h0 - 1.0*h1 + 0.3
	got, err := net.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if diff := got[0] - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("legacy model predicts %v, want %v", got[0], want)
	}
	// A loaded legacy model must remain trainable on the new engine.
	if _, err := net.TrainEpochs(context.Background(), [][]float64{{1, 1}, {2, 0}, {0, 3}, {1, 2}},
		[][]float64{{1}, {2}, {3}, {4}}, 3); err != nil {
		t.Fatalf("legacy model cannot continue training: %v", err)
	}
}

// TestSaveKeepsNestedWireFormat pins the on-disk schema: whatever the
// in-memory layout, the serialized form stays [layer][out][in] so older
// readers (and the PR 2 provenance-stamped model files that embed these
// blobs) keep working.
func TestSaveKeepsNestedWireFormat(t *testing.T) {
	net, err := New(Config{Inputs: 3, Outputs: 2, Hidden: []int{4}, Seed: 11, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	var wire struct {
		Weights [][][]float64 `json:"weights"`
		Biases  [][]float64   `json:"biases"`
	}
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatal(err)
	}
	if len(wire.Weights) != 2 || len(wire.Biases) != 2 {
		t.Fatalf("wire format has %d weight / %d bias layers, want 2/2", len(wire.Weights), len(wire.Biases))
	}
	if len(wire.Weights[0]) != 4 || len(wire.Weights[0][0]) != 3 {
		t.Errorf("layer 0 wire shape %dx%d, want 4x3", len(wire.Weights[0]), len(wire.Weights[0][0]))
	}
	if len(wire.Weights[1]) != 2 || len(wire.Weights[1][0]) != 4 {
		t.Errorf("layer 1 wire shape %dx%d, want 2x4", len(wire.Weights[1]), len(wire.Weights[1][0]))
	}
	// Round trip through the wire format is weight-exact.
	back, err := parseNetwork(b)
	if err != nil {
		t.Fatal(err)
	}
	for li, l := range net.layers {
		for i := range l.w {
			if back.layers[li].w[i] != l.w[i] {
				t.Fatalf("layer %d weight %d changed across round trip", li, i)
			}
		}
	}
}

// TestConfigValidateCoverage exercises every validate branch explicitly,
// including the batch/learning-rate defaults the engine relies on.
func TestConfigValidateCoverage(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero inputs", Config{Inputs: 0, Outputs: 1}, false},
		{"zero outputs", Config{Inputs: 1, Outputs: 0}, false},
		{"negative hidden", Config{Inputs: 1, Outputs: 1, Hidden: []int{8, -1}}, false},
		{"unknown optimizer", Config{Inputs: 1, Outputs: 1, Optimizer: "rmsprop"}, false},
		{"unknown loss", Config{Inputs: 1, Outputs: 1, Loss: "hinge"}, false},
		{"negative L2", Config{Inputs: 1, Outputs: 1, L2: -0.5}, false},
		{"minimal valid", Config{Inputs: 1, Outputs: 1}, true},
		{"full valid", Config{Inputs: 4, Outputs: 2, Hidden: []int{8, 8},
			Optimizer: Adagrad, Loss: MAE, L2: 0.1, Epochs: 3, BatchSize: 4}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg)
			if tc.ok && err != nil {
				t.Errorf("valid config rejected: %v", err)
			}
			if !tc.ok && err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	// Defaults fill in exactly as documented.
	net, err := New(Config{Inputs: 1, Outputs: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := net.Config()
	if cfg.Optimizer != Adam || cfg.Loss != MSE || cfg.Epochs != 200 ||
		cfg.BatchSize != 32 || cfg.LearningRate != 0.001 {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	sgd, err := New(Config{Inputs: 1, Outputs: 1, Optimizer: SGD})
	if err != nil {
		t.Fatal(err)
	}
	if sgd.Config().LearningRate != 0.01 {
		t.Errorf("SGD default learning rate = %v, want 0.01", sgd.Config().LearningRate)
	}
}
