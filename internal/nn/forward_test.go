package nn

import (
	"context"
	"math"
	"testing"
)

// TestForwardBatchMatchesPredict asserts the batched forward entry point
// equals the per-sample path bit for bit on a trained network.
func TestForwardBatchMatchesPredict(t *testing.T) {
	x, y := makeLinearData(50, 6, 3, 41)
	net, err := New(Config{
		Inputs: 6, Outputs: 3, Hidden: []int{20, 20},
		Optimizer: Adam, Loss: MSE, Epochs: 10, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Train(context.Background(), x, y); err != nil {
		t.Fatal(err)
	}
	dst := make([][]float64, len(x))
	for i := range dst {
		dst[i] = make([]float64, 3)
	}
	fs := NewForwardScratch()
	if err := net.ForwardBatch(x, dst, fs); err != nil {
		t.Fatal(err)
	}
	for s := range x {
		want, err := net.Predict(x[s])
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Float64bits(dst[s][j]) != math.Float64bits(want[j]) {
				t.Fatalf("sample %d out %d: batch %v vs Predict %v", s, j, dst[s][j], want[j])
			}
		}
	}
	// A second call on the same warm scratch must reproduce the first
	// bit-for-bit (the batched path is deterministic).
	again := make([][]float64, len(x))
	for i := range again {
		again[i] = make([]float64, 3)
	}
	if err := net.ForwardBatch(x, again, fs); err != nil {
		t.Fatal(err)
	}
	for s := range dst {
		for j := range dst[s] {
			if dst[s][j] != again[s][j] {
				t.Fatalf("sample %d out %d drifted across calls: %v vs %v", s, j, dst[s][j], again[s][j])
			}
		}
	}
}

// TestForwardBatchRemainderRowsBitIdentical pins the one-row contract:
// every row of every batch length, including those that fill a four-row
// block, equals Predict and the dense reference chain (refForward) bit
// for bit.
func TestForwardBatchRemainderRowsBitIdentical(t *testing.T) {
	x, y := makeLinearData(7, 6, 3, 17)
	net, err := New(Config{
		Inputs: 6, Outputs: 3, Hidden: []int{21, 13},
		Optimizer: Adam, Loss: MSE, Epochs: 5, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Train(context.Background(), x, y); err != nil {
		t.Fatal(err)
	}
	fs := NewForwardScratch()
	for nb := 1; nb <= len(x); nb++ {
		dst := make([][]float64, nb)
		for i := range dst {
			dst[i] = make([]float64, 3)
		}
		if err := net.ForwardBatch(x[:nb], dst, fs); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < nb; s++ {
			want, err := net.Predict(x[s])
			if err != nil {
				t.Fatal(err)
			}
			ref := refForward(net, x[s])
			if !sameBits(dst[s], want) || !sameBits(ref, want) {
				t.Fatalf("batch %d row %d: ForwardBatch %v, Predict %v, reference %v",
					nb, s, dst[s], want, ref)
			}
		}
	}
}

// TestForwardBatchNilScratch covers the pooled-scratch path chunked fleet
// recomputes use.
func TestForwardBatchNilScratch(t *testing.T) {
	x, _ := makeLinearData(9, 4, 2, 7)
	net, err := New(Config{Inputs: 4, Outputs: 2, Hidden: []int{8}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([][]float64, len(x))
	for i := range dst {
		dst[i] = make([]float64, 2)
	}
	if err := net.ForwardBatch(x, dst, nil); err != nil {
		t.Fatal(err)
	}
	want, err := net.Predict(x[4])
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(dst[4], want) {
		t.Fatalf("batch %v vs Predict %v", dst[4], want)
	}
}

// TestForwardBatchScratchSurvivesShapeChange reuses one scratch across
// networks of different shapes — the recommender's pool does exactly this
// after a model swap.
func TestForwardBatchScratchSurvivesShapeChange(t *testing.T) {
	fs := NewForwardScratch()
	for _, shape := range []struct{ in, out, hid int }{{3, 2, 8}, {7, 4, 16}, {2, 1, 4}} {
		x, _ := makeLinearData(11, shape.in, shape.out, int64(shape.in))
		net, err := New(Config{Inputs: shape.in, Outputs: shape.out, Hidden: []int{shape.hid}, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		dst := make([][]float64, len(x))
		for i := range dst {
			dst[i] = make([]float64, shape.out)
		}
		if err := net.ForwardBatch(x, dst, fs); err != nil {
			t.Fatal(err)
		}
		want, err := net.Predict(x[0])
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(dst[0], want) {
			t.Fatalf("shape %v: batch %v vs Predict %v", shape, dst[0], want)
		}
	}
}

// TestForwardBatchValidation pins the error contract: row-count and width
// mismatches fail before any buffer is touched, and an empty batch is a
// no-op.
func TestForwardBatchValidation(t *testing.T) {
	net, err := New(Config{Inputs: 3, Outputs: 2, Hidden: []int{4}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	good := [][]float64{{1, 2, 3}}
	if err := net.ForwardBatch(good, make([][]float64, 2), nil); err == nil {
		t.Fatal("dst row-count mismatch not rejected")
	}
	if err := net.ForwardBatch([][]float64{{1, 2}}, [][]float64{make([]float64, 2)}, nil); err == nil {
		t.Fatal("short input row not rejected")
	}
	if err := net.ForwardBatch(good, [][]float64{make([]float64, 3)}, nil); err == nil {
		t.Fatal("wrong dst width not rejected")
	}
	if err := net.ForwardBatch(nil, nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}
