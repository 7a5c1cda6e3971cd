package nn

// The BENCH_train.json trajectory pair: BenchmarkTrainEpoch is the
// flat-weight mini-batch GEMM engine at the paper-final network shape,
// BenchmarkTrainEpochSeed the retired per-sample loop preserved in
// reference_test.go. Both keep network construction off the clock
// (StopTimer/StartTimer), so ns/op and allocs/op are pure steady-state
// epoch costs. Regenerate with:
//
//	go test -run '^$' -bench 'BenchmarkTrainEpoch' -benchtime=10x -benchmem ./internal/nn

import (
	"context"
	"testing"

	"sizeless/internal/xrand"
)

// benchTrainData is the paper-shaped workload of the retired root
// BenchmarkNNTrainingEpoch: 200 rows, 11 features, 5 targets.
func benchTrainData() (x, y [][]float64) {
	rng := xrand.New(4).Derive("nn")
	const rows, feats, targets = 200, 11, 5
	x = make([][]float64, rows)
	y = make([][]float64, rows)
	for i := range x {
		x[i] = make([]float64, feats)
		y[i] = make([]float64, targets)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
		for j := range y[i] {
			y[i][j] = rng.Uniform(0.1, 2.5)
		}
	}
	return x, y
}

func benchConfig(seed int64) Config {
	return Config{
		Inputs: 11, Outputs: 5, Hidden: []int{256, 256, 256, 256},
		Optimizer: Adam, Loss: MAPE, Epochs: 1, Seed: seed,
	}
}

// BenchmarkTrainEpoch measures one mini-batch GEMM training epoch of the
// paper-final network shape on a 200-row dataset. Construction and
// optimizer-state allocation happen off the clock: the reported ns/op and
// allocs/op are pure steady-state epoch cost, the quantity every epoch of
// every consumer pays.
func BenchmarkTrainEpoch(b *testing.B) {
	x, y := benchTrainData()
	ts := &TrainScratch{}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net, err := New(benchConfig(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		net.ensureOptState()
		b.StartTimer()
		if _, err := net.TrainWith(ctx, x, y, 1, ts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainEpochSeed measures the same steady-state epoch on the
// retired per-sample engine — the baseline the acceptance speedup in
// BENCH_train.json is scored against. Construction is likewise untimed;
// the per-batch gradient allocations are intrinsic to the retired
// algorithm and stay on the clock.
func BenchmarkTrainEpochSeed(b *testing.B) {
	x, y := benchTrainData()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ref := newRefNet(benchConfig(int64(i)))
		b.StartTimer()
		ref.train(x, y, 1)
	}
}

// BenchmarkFineTuneEpochs measures ten frozen-half fine-tuning epochs at
// paper shape: the frozen layers skip backward compute entirely, so this
// also tracks the freeze fast path.
func BenchmarkFineTuneEpochs(b *testing.B) {
	x, y := benchTrainData()
	net, err := New(benchConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := net.Train(context.Background(), x, y); err != nil {
		b.Fatal(err)
	}
	if err := net.SetFrozenLayers(net.LayerCount() / 2); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.TrainEpochs(context.Background(), x, y, 10); err != nil {
			b.Fatal(err)
		}
	}
}
