package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"sizeless/internal/monitoring"
	"sizeless/internal/platform"
)

// crashHugeNetwork once panicked nn.Load: its config claims a 4e9 × 4e9
// layer that the file holds no weights for.
const crashHugeNetwork = `{"config":{"Inputs":4000000000,"Outputs":4000000000,"Optimizer":"adam","Loss":"mse"},"weights":[],"biases":[]}`

// fuzzSeedModel trains a real one-member model with one hidden layer of
// four neurons and returns its saved bytes plus a base-size summary to
// predict from.
func fuzzSeedModel(tb testing.TB) ([]byte, monitoring.Summary) {
	tb.Helper()
	ds := testDataset(tb)
	cfg := DefaultModelConfig(platform.Mem256)
	cfg.Hidden = []int{4}
	cfg.Epochs = 5
	cfg.EnsembleSize = 1
	m, err := Train(context.Background(), ds, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), ds.Rows[0].Summaries[platform.Mem256]
}

// editModel decodes a saved model, applies edit and re-encodes it.
func editModel(tb testing.TB, saved []byte, edit func(*savedModel)) []byte {
	tb.Helper()
	var s savedModel
	if err := json.Unmarshal(saved, &s); err != nil {
		tb.Fatal(err)
	}
	edit(&s)
	out, err := json.Marshal(s)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// networkJSON is a zero-weight saved network of the given shape.
func networkJSON(inputs, outputs int) json.RawMessage {
	w := make([][]float64, outputs)
	for o := range w {
		w[o] = make([]float64, inputs)
	}
	raw, err := json.Marshal(map[string]any{
		"config":  map[string]any{"Inputs": inputs, "Outputs": outputs},
		"weights": [][][]float64{w},
		"biases":  [][]float64{make([]float64, outputs)},
	})
	if err != nil {
		panic(err)
	}
	return raw
}

// crashShortStd once loaded without error and then panicked the first
// Predict inside Scaler.TransformInPlace: its scaler keeps one deviation.
func crashShortStd(tb testing.TB, saved []byte) []byte {
	return editModel(tb, saved, func(s *savedModel) { s.Scaler.Std = s.Scaler.Std[:1] })
}

func TestLoadModelRejectsInconsistentShapes(t *testing.T) {
	saved, _ := fuzzSeedModel(t)
	var ref savedModel
	if err := json.Unmarshal(saved, &ref); err != nil {
		t.Fatal(err)
	}
	nFeat, nTarget := len(ref.FeatureNames), len(ref.Targets)
	cases := map[string][]byte{
		"scaler std cut to one":  crashShortStd(t, saved),
		"scaler mean cut to one": editModel(t, saved, func(s *savedModel) { s.Scaler.Mean = s.Scaler.Mean[:1] }),
		"scaler shorter than features": editModel(t, saved, func(s *savedModel) {
			s.Scaler.Mean, s.Scaler.Std = s.Scaler.Mean[1:], s.Scaler.Std[1:]
		}),
		"network with huge config": editModel(t, saved, func(s *savedModel) {
			s.Networks = []json.RawMessage{json.RawMessage(crashHugeNetwork)}
		}),
		"network inputs differ from features": editModel(t, saved, func(s *savedModel) {
			s.Networks = []json.RawMessage{networkJSON(nFeat+1, nTarget)}
		}),
		"network outputs differ from targets": editModel(t, saved, func(s *savedModel) {
			s.Networks = []json.RawMessage{networkJSON(nFeat, nTarget-1)}
		}),
	}
	for name, data := range cases {
		if _, err := LoadModel(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: LoadModel accepted the model", name)
		}
	}
	same := editModel(t, saved, func(s *savedModel) { s.Networks = []json.RawMessage{networkJSON(nFeat, nTarget)} })
	if _, err := LoadModel(bytes.NewReader(same)); err != nil {
		t.Errorf("a correctly shaped network was rejected: %v", err)
	}
}

// FuzzLoadModel checks LoadModel never panics, and that every model it
// accepts predicts, one row and batched, without panicking.
func FuzzLoadModel(f *testing.F) {
	saved, sum := fuzzSeedModel(f)
	for i := 0; i <= len(saved); i++ {
		f.Add(saved[:i])
	}
	f.Add([]byte(crashHugeNetwork))
	f.Add(crashShortStd(f, saved))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		_, _ = m.Predict(sum)
		_, _ = m.PredictBatch(context.Background(), []monitoring.Summary{sum, sum}, 1)
	})
}
