package nn

import (
	"bytes"
	"context"
	"testing"
)

func TestSetFrozenLayersValidation(t *testing.T) {
	net, err := New(Config{Inputs: 2, Outputs: 1, Hidden: []int{4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if got := net.LayerCount(); got != 3 {
		t.Fatalf("LayerCount = %d, want 3 (2 hidden + output)", got)
	}
	if err := net.SetFrozenLayers(-1); err == nil {
		t.Error("negative freeze should error")
	}
	if err := net.SetFrozenLayers(4); err == nil {
		t.Error("freezing more layers than exist should error")
	}
	if err := net.SetFrozenLayers(2); err != nil {
		t.Errorf("valid freeze rejected: %v", err)
	}
	if got := net.frozen; got != 2 {
		t.Errorf("FrozenLayers = %d, want 2", got)
	}
}

func TestFrozenLayersDoNotUpdate(t *testing.T) {
	x, y := makeLinearData(100, 3, 1, 21)
	net, err := New(Config{Inputs: 3, Outputs: 1, Hidden: []int{8, 8}, Epochs: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Train(context.Background(), x, y); err != nil {
		t.Fatal(err)
	}
	if err := net.SetFrozenLayers(1); err != nil {
		t.Fatal(err)
	}

	// Snapshot the frozen layer's weights and a trainable layer's weights.
	frozenBefore := append([]float64(nil), net.layers[0].w...)
	trainableBefore := append([]float64(nil), net.layers[2].w...)

	if _, err := net.TrainEpochs(context.Background(), x, y, 10); err != nil {
		t.Fatal(err)
	}

	for i, w := range net.layers[0].w {
		if w != frozenBefore[i] {
			t.Fatalf("frozen layer weight changed at %d: %v -> %v", i, frozenBefore[i], w)
		}
	}
	changed := false
	for i, w := range net.layers[2].w {
		if w != trainableBefore[i] {
			changed = true
			_ = i
		}
	}
	if !changed {
		t.Error("trainable layer weights did not change")
	}
}

func TestTrainEpochsContinues(t *testing.T) {
	x, y := makeLinearData(150, 3, 1, 22)
	net, err := New(Config{Inputs: 3, Outputs: 1, Hidden: []int{16}, Epochs: 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	first, err := net.Train(context.Background(), x, y)
	if err != nil {
		t.Fatal(err)
	}
	second, err := net.TrainEpochs(context.Background(), x, y, 100)
	if err != nil {
		t.Fatal(err)
	}
	if second >= first {
		t.Errorf("continued training should reduce loss: %v -> %v", first, second)
	}
	// Epochs config is restored.
	if net.Config().Epochs != 10 {
		t.Errorf("TrainEpochs should not mutate config epochs: %d", net.Config().Epochs)
	}
	if _, err := net.TrainEpochs(context.Background(), x, y, 0); err == nil {
		t.Error("zero epochs should error")
	}
}

// TestDropOptimizerStateKeepsModel: dropping a trained network's optimizer
// state frees the moment buffers and step count but leaves the weights,
// and so predictions and saved bytes, alone; training again starts a
// fresh optimizer.
func TestDropOptimizerStateKeepsModel(t *testing.T) {
	x, y := makeLinearData(60, 3, 2, 17)
	net, err := New(Config{Inputs: 3, Outputs: 2, Hidden: []int{8}, Epochs: 15, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Train(context.Background(), x, y); err != nil {
		t.Fatal(err)
	}
	before, err := net.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	net.DropOptimizerState()
	after, err := net.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("dropping the optimizer state changed the saved network")
	}
	if net.step != 0 {
		t.Errorf("step = %d after the drop, want 0", net.step)
	}
	for li, d := range net.layers {
		if d.mW != nil || d.mB != nil || d.vW != nil || d.vB != nil {
			t.Errorf("layer %d still holds optimizer moments", li)
		}
	}
	if _, err := net.TrainEpochs(context.Background(), x, y, 2); err != nil {
		t.Fatal(err)
	}
	if net.step == 0 || net.layers[0].mW == nil {
		t.Error("training after the drop did not start a fresh optimizer")
	}
}
