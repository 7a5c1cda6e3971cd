package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"sizeless/internal/monitoring"
	"sizeless/internal/platform"
)

// predictBatchFixture trains the small test model and returns it with the
// test dataset's base-size summaries and each one's Predict result.
func predictBatchFixture(t *testing.T) (*Model, []monitoring.Summary, []map[platform.MemorySize]float64) {
	t.Helper()
	ds := testDataset(t)
	cfg := smallConfig(platform.Mem256)
	cfg.Epochs = 60
	model, err := Train(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]monitoring.Summary, 0, len(ds.Rows))
	for _, row := range ds.Rows {
		all = append(all, row.Summaries[platform.Mem256])
	}
	want := make([]map[platform.MemorySize]float64, len(all))
	for i, s := range all {
		if want[i], err = model.Predict(s); err != nil {
			t.Fatal(err)
		}
	}
	return model, all, want
}

// checkSameTimes fails unless got equals want bit for bit at every size.
func checkSameTimes(t *testing.T, label string, got, want map[platform.MemorySize]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d sizes, want %d", label, len(got), len(want))
	}
	for mem, w := range want {
		if v, ok := got[mem]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			t.Fatalf("%s size %v: batch %v vs Predict %v", label, mem, v, w)
		}
	}
}

// TestPredictBatchMatchesPredict pins the batched fleet path to the
// per-sample one: for batch sizes around the chunk boundary and worker
// counts from GOMAXPROCS to absurdly oversubscribed, every per-size time
// equals Predict's bit for bit.
func TestPredictBatchMatchesPredict(t *testing.T) {
	model, all, want := predictBatchFixture(t)
	ctx := context.Background()
	for _, n := range []int{1, 5, 16, 17, 33} {
		if n > len(all) {
			t.Fatalf("test dataset has only %d rows, need %d", len(all), n)
		}
		for _, workers := range []int{0, 1, 1000} {
			got, err := model.PredictBatch(ctx, all[:n], workers)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if len(got) != n {
				t.Fatalf("n=%d workers=%d: %d results", n, workers, len(got))
			}
			for i, times := range got {
				checkSameTimes(t, fmt.Sprintf("n=%d workers=%d row %d", n, workers, i), times, want[i])
			}
		}
	}
}

// TestPredictBatchBitIdenticalAnyChunking sweeps every batch length from
// 1 to 70 at one, two and three workers, so rows land in chunks of every
// size up to 16 and at every offset: each must equal Predict bit for bit.
func TestPredictBatchBitIdenticalAnyChunking(t *testing.T) {
	model, all, want := predictBatchFixture(t)
	if len(all) < 70 {
		t.Fatalf("test dataset has only %d rows, need 70", len(all))
	}
	ctx := context.Background()
	for n := 1; n <= 70; n++ {
		for _, workers := range []int{1, 2, 3} {
			got, err := model.PredictBatch(ctx, all[:n], workers)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i, times := range got {
				checkSameTimes(t, fmt.Sprintf("n=%d workers=%d row %d", n, workers, i), times, want[i])
			}
		}
	}
}
