// Benchmarks: one per paper table/figure (regenerating the corresponding
// experiment at small scale) plus micro-benchmarks of the hot paths.
//
// The experiment benches share one lazily built Lab so the expensive
// artifacts (training dataset, per-base models, case-study measurements)
// are constructed once, outside the timed sections.
//
// Reproduce the paper's artifacts directly with:
//
//	go test -bench=. -benchmem
//	go run ./cmd/benchreport -scale medium -run all
package sizeless_test

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"sizeless/internal/apps"
	"sizeless/internal/core"
	"sizeless/internal/dag"
	"sizeless/internal/dataset"
	"sizeless/internal/experiments"
	"sizeless/internal/fleetsynth"
	"sizeless/internal/harness"
	"sizeless/internal/lambda"
	"sizeless/internal/loadgen"
	"sizeless/internal/monitoring"
	"sizeless/internal/nn"
	"sizeless/internal/optimizer"
	"sizeless/internal/platform"
	"sizeless/internal/recommender"
	"sizeless/internal/runtime"
	"sizeless/internal/services"
	"sizeless/internal/stats"
	"sizeless/internal/workload"
	"sizeless/internal/xrand"
)

var (
	benchLabOnce sync.Once
	benchLab     *experiments.Lab
)

// lab returns the shared small-scale lab, pre-warming the dataset, the
// base-256 and base-128 models, and the case-study measurements so that
// individual benchmarks time only their own experiment.
func lab(b *testing.B) *experiments.Lab {
	b.Helper()
	benchLabOnce.Do(func() {
		ctx := context.Background()
		benchLab = experiments.NewLab(experiments.SmallScale())
		if _, err := benchLab.Dataset(ctx); err != nil {
			b.Fatal(err)
		}
		for _, base := range []platform.MemorySize{platform.Mem128, platform.Mem256} {
			if _, err := benchLab.Model(ctx, base); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := benchLab.CaseStudies(ctx); err != nil {
			b.Fatal(err)
		}
	})
	return benchLab
}

// runExperiment benches one experiment runner.
func runExperiment(b *testing.B, run func(ctx context.Context, l *experiments.Lab) (interface{ Render() string }, error)) {
	l := lab(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := run(ctx, l)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.WriteString(io.Discard, res.Render()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1MotivatingExample(b *testing.B) {
	runExperiment(b, func(ctx context.Context, l *experiments.Lab) (interface{ Render() string }, error) {
		return experiments.MotivatingExample(ctx, l)
	})
}

func BenchmarkFig3Stability(b *testing.B) {
	runExperiment(b, func(ctx context.Context, l *experiments.Lab) (interface{ Render() string }, error) {
		return experiments.StabilityAnalysis(ctx, l)
	})
}

func BenchmarkFig4FeatureSelection(b *testing.B) {
	runExperiment(b, func(ctx context.Context, l *experiments.Lab) (interface{ Render() string }, error) {
		return experiments.FeatureSelection(ctx, l, platform.Mem256, 5, 5, 5)
	})
}

func BenchmarkFig5PartialDependence(b *testing.B) {
	runExperiment(b, func(ctx context.Context, l *experiments.Lab) (interface{ Render() string }, error) {
		return experiments.PartialDependencePlots(ctx, l, 7)
	})
}

func BenchmarkTable2GridSearch(b *testing.B) {
	runExperiment(b, func(ctx context.Context, l *experiments.Lab) (interface{ Render() string }, error) {
		return experiments.GridSearchTable(ctx, l, nil, 3)
	})
}

func BenchmarkTable3CrossValidation(b *testing.B) {
	runExperiment(b, func(ctx context.Context, l *experiments.Lab) (interface{ Render() string }, error) {
		return experiments.CrossValidationTable(ctx, l, 3, 1)
	})
}

func BenchmarkFig6CaseStudyPredictions(b *testing.B) {
	runExperiment(b, func(ctx context.Context, l *experiments.Lab) (interface{ Render() string }, error) {
		return experiments.CaseStudyPredictions(ctx, l, nil)
	})
}

func BenchmarkTable4to7PredictionErrors(b *testing.B) {
	runExperiment(b, func(ctx context.Context, l *experiments.Lab) (interface{ Render() string }, error) {
		return experiments.PredictionErrors(ctx, l)
	})
}

func BenchmarkFig7SelectionRanking(b *testing.B) {
	runExperiment(b, func(ctx context.Context, l *experiments.Lab) (interface{ Render() string }, error) {
		return experiments.SelectionRanking(ctx, l)
	})
}

func BenchmarkTable8CostSavings(b *testing.B) {
	runExperiment(b, func(ctx context.Context, l *experiments.Lab) (interface{ Render() string }, error) {
		return experiments.SavingsSpeedup(ctx, l)
	})
}

func BenchmarkBaselines(b *testing.B) {
	runExperiment(b, func(ctx context.Context, l *experiments.Lab) (interface{ Render() string }, error) {
		return experiments.BaselineComparison(ctx, l)
	})
}

func BenchmarkAblationTargets(b *testing.B) {
	runExperiment(b, func(ctx context.Context, l *experiments.Lab) (interface{ Render() string }, error) {
		return experiments.AblationTargets(ctx, l, 3)
	})
}

func BenchmarkAblationFeatures(b *testing.B) {
	runExperiment(b, func(ctx context.Context, l *experiments.Lab) (interface{ Render() string }, error) {
		return experiments.AblationFeatures(ctx, l, 3)
	})
}

func BenchmarkAblationIncrements(b *testing.B) {
	runExperiment(b, func(ctx context.Context, l *experiments.Lab) (interface{ Render() string }, error) {
		return experiments.AblationIncrements(ctx, l)
	})
}

// ---- Micro-benchmarks of the hot paths ----

func benchSpec() *workload.Spec {
	return &workload.Spec{
		Name: "bench-fn",
		Ops: []workload.Op{
			workload.CPUOp{Label: "w", WorkMs: 25, Parallelism: 1, TransientAllocMB: 8},
			workload.ServiceOp{Service: services.DynamoDB, Op: "Query", Calls: 2, RequestKB: 1, ResponseKB: 16},
			workload.FileWriteOp{MB: 2},
		},
		BaseHeapMB: 30, CodeMB: 3, PayloadKB: 2, ResponseKB: 1, NoiseCoV: 0.1,
	}
}

// BenchmarkRuntimeInvoke measures one simulated invocation (the inner loop
// of every measurement campaign — the paper's full dataset runs 216 million
// of these).
func BenchmarkRuntimeInvoke(b *testing.B) {
	env := runtime.NewEnv()
	inst, err := runtime.NewInstance(env, benchSpec(), platform.Mem512, xrand.New(1).Derive("bench"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := inst.Invoke(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeploymentRun measures a full deployment run in the shape of
// one harness cell of the offline pipeline (30 rps for 2 minutes, about
// 3600 arrivals): warm-pool routing, keep-alive reaping, cold starts and
// monitoring.
func BenchmarkDeploymentRun(b *testing.B) {
	env := runtime.NewEnv()
	sched, err := loadgen.Poisson(30, 2*time.Minute, xrand.New(2).Derive("sched"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := monitoring.NewAccumulator()
		dep, err := lambda.NewDeployment(env, benchSpec(), platform.Mem512, acc, xrand.New(3).DeriveIndexed("dep", i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dep.Run(sched); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNNTrainingEpoch measures one training epoch of the paper-final
// network shape on a 200-row dataset.
func BenchmarkNNTrainingEpoch(b *testing.B) {
	rng := xrand.New(4).Derive("nn")
	const rows, feats, targets = 200, 11, 5
	x := make([][]float64, rows)
	y := make([][]float64, rows)
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := nn.New(nn.Config{
			Inputs: feats, Outputs: targets, Hidden: []int{256, 256, 256, 256},
			Optimizer: nn.Adam, Loss: nn.MAPE, Epochs: 1, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := net.Train(context.Background(), x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelPredict measures one online prediction (the per-function
// cost of a provider-side recommender sweep).
func BenchmarkModelPredict(b *testing.B) {
	l := lab(b)
	model, err := l.Model(context.Background(), platform.Mem256)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := l.Dataset(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	summary := ds.Rows[0].Summaries[platform.Mem256]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Predict(summary); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMannWhitney measures the stability test on 2×1800 samples (one
// minute of 30 rps).
func BenchmarkMannWhitney(b *testing.B) {
	rng := xrand.New(5).Derive("mw")
	x := make([]float64, 1800)
	y := make([]float64, 1800)
	for i := range x {
		x[i] = rng.LogNormal(10, 0.4)
		y[i] = rng.LogNormal(10.5, 0.4)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.MannWhitneyU(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimize measures one §3.5 optimization over the six sizes.
func BenchmarkOptimize(b *testing.B) {
	pricing := platform.DefaultPricing()
	times := map[platform.MemorySize]float64{
		128: 800, 256: 420, 512: 230, 1024: 140, 2048: 110, 3008: 105,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optimizer.Optimize(times, pricing, 0.75); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHarnessMeasure measures one complete (function, size) experiment
// at reduced duration.
func BenchmarkHarnessMeasure(b *testing.B) {
	opts := harness.Options{
		Rate:     20,
		Duration: 10 * time.Second,
		Sizes:    []platform.MemorySize{platform.Mem512},
		Workers:  1,
	}
	specs := []*workload.Spec{benchSpec()}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = 6 + int64(i)
		if _, err := harness.BuildDataset(ctx, opts, specs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatasetCSVRoundTrip measures dataset persistence.
func BenchmarkDatasetCSVRoundTrip(b *testing.B) {
	l := lab(b)
	ds, err := l.Dataset(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf writeCounter
		if err := ds.WriteCSV(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// writeCounter is an io.Writer that only counts bytes.
type writeCounter int64

func (w *writeCounter) Write(p []byte) (int, error) {
	*w += writeCounter(len(p))
	return len(p), nil
}

// BenchmarkCoreTraining measures training the paper-final model (ensemble
// of one for comparability) on the shared small dataset.
func BenchmarkCoreTraining(b *testing.B) {
	l := lab(b)
	ds, err := l.Dataset(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultModelConfig(platform.Mem256)
	cfg.Hidden = []int{64, 64}
	cfg.Epochs = 100
	cfg.EnsembleSize = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := core.Train(context.Background(), ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainEnsemble measures one ensemble of three through the
// epoch-slice scheduler: with one worker the members train one after
// another; with two they share both workers in slices of half the budget,
// so the third member no longer trains alone. The model is the same
// either way.
func BenchmarkTrainEnsemble(b *testing.B) {
	l := lab(b)
	ds, err := l.Dataset(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := core.DefaultModelConfig(platform.Mem256)
			cfg.Hidden = []int{32, 32}
			cfg.Epochs = 60
			cfg.EnsembleSize = 3
			cfg.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Train(context.Background(), ds, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var _ = dataset.New // keep the import for documentation cross-reference

// BenchmarkTransferLearning measures the A5 extension experiment: adapt the
// model to a platform change by fine-tuning on a small new dataset.
func BenchmarkTransferLearning(b *testing.B) {
	runExperiment(b, func(ctx context.Context, l *experiments.Lab) (interface{ Render() string }, error) {
		return experiments.TransferLearning(ctx, l)
	})
}

// batchSummaries assembles n monitoring summaries from the shared lab
// dataset for the batch-prediction benchmarks.
func batchSummaries(b *testing.B, n int) []monitoring.Summary {
	b.Helper()
	l := lab(b)
	ds, err := l.Dataset(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	sums := make([]monitoring.Summary, n)
	for i := range sums {
		sums[i] = ds.Rows[i%len(ds.Rows)].Summaries[platform.Mem256]
	}
	return sums
}

// BenchmarkPredictLoop is the naive fleet sweep: one Predict call per
// summary — the baseline PredictBatch must beat.
func BenchmarkPredictLoop(b *testing.B) {
	l := lab(b)
	model, err := l.Model(context.Background(), platform.Mem256)
	if err != nil {
		b.Fatal(err)
	}
	sums := batchSummaries(b, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range sums {
			if _, err := model.Predict(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPredictBatch measures the amortized concurrent batch path over
// the same 256 summaries (the fleet-scale hot path of a provider-side
// recommender).
func BenchmarkPredictBatch(b *testing.B) {
	l := lab(b)
	model, err := l.Model(context.Background(), platform.Mem256)
	if err != nil {
		b.Fatal(err)
	}
	sums := batchSummaries(b, 256)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.PredictBatch(ctx, sums, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fleet-scale ingestion benchmarks ----

const (
	benchFleetSize   = 1000
	benchFleetWindow = 100
)

// benchIngestBatch times one IngestBatch of a fresh benchFleetSize-function
// fleet: every function crosses MinWindow, so each one runs summarization,
// prediction, and optimization.
func benchIngestBatch(b *testing.B, shards, workers int) {
	l := lab(b)
	model, err := l.Model(context.Background(), platform.Mem256)
	if err != nil {
		b.Fatal(err)
	}
	batch := fleetsynth.Batch(benchFleetSize, benchFleetWindow, 99, 1)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc, err := recommender.New(model, recommender.Config{
			MinWindow: benchFleetWindow, Shards: shards, Workers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := svc.IngestBatch(ctx, batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(benchFleetSize)*float64(b.N)/secs, "fns/s")
	}
}

// BenchmarkIngestBatch is the sharded concurrent fleet-ingest hot path
// (default shards, worker pool at GOMAXPROCS).
func BenchmarkIngestBatch(b *testing.B) { benchIngestBatch(b, 0, 0) }

// BenchmarkIngestBatchOneShard runs the same pipeline restricted to one
// shard and one worker — isolates what sharding + the worker pool buy on
// top of the per-function improvements (nothing on a single-core host;
// roughly core-count on real fleet hardware).
func BenchmarkIngestBatchOneShard(b *testing.B) { benchIngestBatch(b, 1, 1) }

// BenchmarkIngestBatchSequential reproduces the seed's sequential ingestion
// pipeline, kept here as the measured baseline the concurrent engine is
// scored against in BENCH_ingest.json: functions walked one by one under a
// single coarse lock, every window copied into per-function buffers, and
// each summary reduced metric-by-metric through 25 gather-and-reduce passes
// (the seed's monitoring.Summarize). Prediction and optimization use the
// current (pooled) implementations, so the measured speedup *understates*
// the true improvement over the seed.
func BenchmarkIngestBatchSequential(b *testing.B) {
	l := lab(b)
	model, err := l.Model(context.Background(), platform.Mem256)
	if err != nil {
		b.Fatal(err)
	}
	pricing := platform.DefaultPricing()
	batch := fleetsynth.Batch(benchFleetSize, benchFleetWindow, 99, 1)
	ids := make([]string, 0, len(batch))
	for id := range batch {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var mu sync.Mutex
		pending := make(map[string][]monitoring.Invocation, len(ids))
		for _, id := range ids {
			mu.Lock()
			pending[id] = append(pending[id], batch[id]...)
			sum := seedSummarize(pending[id])
			times, err := model.Predict(sum)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := optimizer.Optimize(times, pricing, 0.75); err != nil {
				b.Fatal(err)
			}
			mu.Unlock()
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(benchFleetSize)*float64(b.N)/secs, "fns/s")
	}
}

// seedSummarize is the seed's per-metric summarization, preserved verbatim
// for the baseline benchmark: one gather plus the mean, standard-deviation
// and CoV reduce passes per metric.
func seedSummarize(invs []monitoring.Invocation) monitoring.Summary {
	var sum monitoring.Summary
	sum.N = len(invs)
	samples := make([]float64, len(invs))
	for id := 0; id < monitoring.NumMetrics; id++ {
		for i, inv := range invs {
			samples[i] = inv.Metrics[monitoring.MetricID(id)]
		}
		sum.Mean[id] = stats.Mean(samples)
		sum.Std[id] = seedStdDev(samples)
		if m := stats.Mean(samples); m != 0 {
			sum.CoV[id] = seedStdDev(samples) / m
		}
	}
	for _, inv := range invs {
		if inv.ColdStart {
			sum.ColdStarts++
		}
	}
	return sum
}

// seedStdDev is the seed's unbiased sample standard deviation.
func seedStdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := stats.Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// BenchmarkFineTune measures the §5 adaptation workflow end to end on the
// shared lab model: clone, freeze half the layers, retrain 40 epochs on a
// fifth of the corpus through the mini-batch engine (frozen layers skip
// backward compute entirely).
func BenchmarkFineTune(b *testing.B) {
	l := lab(b)
	model, err := l.Model(context.Background(), platform.Mem256)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := l.Dataset(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	idx := make([]int, len(ds.Rows)/5)
	for i := range idx {
		idx[i] = i
	}
	adapt := ds.Subset(idx)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.FineTune(ctx, model, adapt, core.FineTuneOptions{Epochs: 40}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridSearch measures a reduced Table-2 grid (4 configurations ×
// 2 folds) through the shared training pool — the multi-configuration
// consumer of the mini-batch engine.
func BenchmarkGridSearch(b *testing.B) {
	l := lab(b)
	ds, err := l.Dataset(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	base := core.DefaultModelConfig(platform.Mem256)
	base.EnsembleSize = 1
	grid := core.GridSpec{
		Optimizers: []nn.Optimizer{nn.Adam},
		Losses:     []nn.Loss{nn.MSE, nn.MAPE},
		Epochs:     []int{25},
		Neurons:    []int{32},
		L2s:        []float64{0, 0.01},
		Layers:     []int{2},
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GridSearch(ctx, ds, base, grid, 2, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetDriftStationary times the steady state of a continuous
// recommender: a 1k-function fleet with established baselines ingests
// three same-distribution windows, so every function runs the drift
// detector against its *unchanged* baseline each round — the case the
// per-function rank cache accelerates (the baseline's sorted ranks are
// built once, not once per sweep). BenchmarkDriftSweepResort/-Cached in
// internal/monitoring isolate the detector-level delta.
func BenchmarkFleetDriftStationary(b *testing.B) {
	l := lab(b)
	model, err := l.Model(context.Background(), platform.Mem256)
	if err != nil {
		b.Fatal(err)
	}
	baseline := fleetsynth.Batch(benchFleetSize, benchFleetWindow, 7, 1)
	windows := make([]map[string][]monitoring.Invocation, 3)
	for i := range windows {
		windows[i] = fleetsynth.Batch(benchFleetSize, benchFleetWindow, int64(20+i), 1)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		svc, err := recommender.New(model, recommender.Config{MinWindow: benchFleetWindow})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := svc.IngestBatch(ctx, baseline); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, w := range windows {
			if _, err := svc.IngestBatch(ctx, w); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFleetDrift times a full drift sweep: a 1k-function fleet with
// established baselines ingests a uniformly shifted window, so every
// function runs the drift detector and a recomputation.
func BenchmarkFleetDrift(b *testing.B) {
	l := lab(b)
	model, err := l.Model(context.Background(), platform.Mem256)
	if err != nil {
		b.Fatal(err)
	}
	baseline := fleetsynth.Batch(benchFleetSize, benchFleetWindow, 7, 1)
	shifted := fleetsynth.Batch(benchFleetSize, benchFleetWindow, 8, 3)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		svc, err := recommender.New(model, recommender.Config{MinWindow: benchFleetWindow})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := svc.IngestBatch(ctx, baseline); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := svc.IngestBatch(ctx, shifted); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Temporal scenario-generation benchmarks ----

// scenarioBenchProfile is the workload shape of the scenario-generation
// gate: a diurnal baseline with two superposed spikes over a 10-minute
// horizon (~12k arrivals) — rate discontinuities and a high crest, the
// case that separates segment-wise thinning from naive time stepping.
func scenarioBenchProfile() loadgen.Profile {
	return loadgen.Superpose(
		loadgen.DiurnalProfile{Base: 16, Amplitude: 12, Period: 5 * time.Minute},
		loadgen.SpikeProfile{Start: 2 * time.Minute, Duration: 20 * time.Second, Magnitude: 120},
		loadgen.SpikeProfile{Start: 6 * time.Minute, Duration: 15 * time.Second, Magnitude: 200},
	)
}

const scenarioBenchHorizon = 10 * time.Minute

// BenchmarkScenarioGen is the candidate of the BENCH_scenario.json gate:
// non-homogeneous Poisson sampling via piecewise thinning — candidate
// arrivals drawn at each segment's local rate bound, accepted with
// probability λ(t)/bound.
func BenchmarkScenarioGen(b *testing.B) {
	p := scenarioBenchProfile()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := loadgen.Sample(p, scenarioBenchHorizon, xrand.New(1).Derive("gen"))
		if err != nil {
			b.Fatal(err)
		}
		if len(sched) == 0 {
			b.Fatal("empty schedule")
		}
	}
}

// naiveSample is the time-stepped reference sampler the gate's baseline
// measures: walk the horizon in 1 ms bins and Bernoulli-draw one arrival
// per bin at probability λ(t)·Δt — the textbook discretization a scenario
// engine would ship without the thinning construction. It is statistically
// equivalent for λ·Δt ≪ 1 but costs one rate evaluation and one draw per
// bin regardless of traffic, where thinning costs one draw per *candidate
// arrival*.
func naiveSample(p loadgen.Profile, horizon time.Duration, rng *xrand.Stream) loadgen.Schedule {
	const step = time.Millisecond
	dt := step.Seconds()
	var sched loadgen.Schedule
	for t := time.Duration(0); t < horizon; t += step {
		if rng.Bernoulli(p.Rate(t) * dt) {
			sched = append(sched, t)
		}
	}
	return sched
}

// BenchmarkScenarioGenNaive is the baseline of the BENCH_scenario.json
// gate: the same profile sampled by 1 ms time stepping.
func BenchmarkScenarioGenNaive(b *testing.B) {
	p := scenarioBenchProfile()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched := naiveSample(p, scenarioBenchHorizon, xrand.New(1).Derive("naive"))
		if len(sched) == 0 {
			b.Fatal("empty schedule")
		}
	}
}

// ---- Application-planning benchmarks ----

// BenchmarkAppPlan measures the application planner itself: the joint
// size + fusion search of dag.Compare over the hello-retail DAG (the
// largest case-study app). Per-function times are fabricated analytically
// — a CPU-scaling component atop a fixed service floor — so the timed
// loop contains planning only, no measurement campaign.
func BenchmarkAppPlan(b *testing.B) {
	app := apps.HelloRetail()
	provider := platform.AWSLambda()
	sizes := provider.DefaultSizes()
	times := make(map[string]map[platform.MemorySize]float64, len(app.Functions))
	for i, spec := range app.Functions {
		per := make(map[platform.MemorySize]float64, len(sizes))
		for _, m := range sizes {
			cpu := 300 * float64(i%3+1) * 1792 / math.Min(float64(m), 1792)
			per[m] = 80 + cpu
		}
		times[spec.Name] = per
	}
	g, err := app.Graph(times)
	if err != nil {
		b.Fatal(err)
	}
	cfg := dag.Config{
		Platform: provider.Platform(),
		Sizes:    sizes,
		Rate:     app.Rate,
		Seed:     1,
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, err := dag.Compare(ctx, g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if cmp.PerFunction == nil || cmp.SizesOnly == nil || cmp.Fused == nil {
			b.Fatal("incomplete comparison")
		}
	}
}

// BenchmarkScenarioMatrix regenerates the non-stationary scenario lab
// (traffic synthesis, warm-pool streaming, drift walks, policy scoring)
// at lab scale.
func BenchmarkScenarioMatrix(b *testing.B) {
	runExperiment(b, func(ctx context.Context, l *experiments.Lab) (interface{ Render() string }, error) {
		return experiments.ScenarioMatrix(ctx, l)
	})
}
