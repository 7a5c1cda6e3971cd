package sizeless_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"sizeless"
	"sizeless/internal/fleetsynth"
	"sizeless/internal/platform"
	"sizeless/internal/services"
	"sizeless/internal/workload"
)

// demoSpec is a mixed CPU/service function used across the API tests.
func demoSpec() *workload.Spec {
	return &workload.Spec{
		Name: "demo-fn",
		Ops: []workload.Op{
			workload.CPUOp{Label: "work", WorkMs: 40, Parallelism: 1, TransientAllocMB: 10},
			workload.ServiceOp{Service: services.DynamoDB, Op: "Query", Calls: 2, RequestKB: 1, ResponseKB: 16},
		},
		BaseHeapMB: 30,
		CodeMB:     3,
		PayloadKB:  2,
		ResponseKB: 1,
		NoiseCoV:   0.1,
	}
}

// The shared AWS dataset/predictor are built once: several tests only read
// them, and dataset generation dominates the package's test time.
var (
	quickOnce sync.Once
	quickDS   *sizeless.Dataset
	quickPred *sizeless.Predictor
	quickErr  error
)

func quickDataset(t *testing.T) *sizeless.Dataset {
	t.Helper()
	quickOnce.Do(func() {
		quickDS, quickErr = sizeless.GenerateDataset(context.Background(),
			sizeless.WithFunctions(60),
			sizeless.WithRate(10),
			sizeless.WithDuration(5*time.Second),
			sizeless.WithSeed(42),
		)
		if quickErr != nil {
			return
		}
		quickPred, quickErr = sizeless.TrainPredictor(context.Background(), quickDS,
			sizeless.WithHidden(32, 32),
			sizeless.WithEpochs(150),
		)
	})
	if quickErr != nil {
		t.Fatal(quickErr)
	}
	return quickDS
}

func quickPredictor(t *testing.T) *sizeless.Predictor {
	t.Helper()
	quickDataset(t)
	return quickPred
}

func TestEndToEndPipeline(t *testing.T) {
	ctx := context.Background()
	ds := quickDataset(t)
	if len(ds.Rows) != 60 {
		t.Fatalf("dataset rows = %d, want 60", len(ds.Rows))
	}

	pred := quickPredictor(t)
	if pred.Base() != sizeless.Mem256 {
		t.Errorf("default base = %v, want 256MB", pred.Base())
	}
	if pred.Provider().Name() != "aws-lambda" {
		t.Errorf("default provider = %q, want aws-lambda", pred.Provider().Name())
	}

	summary, err := sizeless.MonitorFunction(ctx, demoSpec(),
		sizeless.WithMemory(sizeless.Mem256),
		sizeless.WithRate(10),
		sizeless.WithDuration(10*time.Second),
		sizeless.WithSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	if summary.N == 0 {
		t.Fatal("monitoring produced no samples")
	}

	times, err := pred.Predict(summary)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 6 {
		t.Fatalf("predictions for %d sizes, want 6", len(times))
	}
	// Monotone non-increasing (enforced physical constraint).
	prev := times[sizeless.Mem128]
	for _, m := range sizeless.StandardSizes()[1:] {
		if times[m] > prev+1e-9 {
			t.Errorf("prediction increased with memory at %v", m)
		}
		prev = times[m]
	}

	rec, err := pred.Recommend(summary, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if !platform.DefaultConfig().ValidSize(rec.Best) {
		t.Errorf("recommended size %v invalid", rec.Best)
	}
	if len(rec.Options) != 6 {
		t.Errorf("recommendation scored %d options, want 6", len(rec.Options))
	}
}

func TestPredictBatchMatchesLoop(t *testing.T) {
	ctx := context.Background()
	ds := quickDataset(t)
	pred := quickPredictor(t)

	sums := make([]sizeless.Summary, 0, len(ds.Rows))
	for _, row := range ds.Rows {
		sums = append(sums, row.Summaries[sizeless.Mem256])
	}

	batch, err := pred.PredictBatch(ctx, sums)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(sums) {
		t.Fatalf("batch returned %d results, want %d", len(batch), len(sums))
	}
	// Every batched row takes the single-row kernel, so the batch equals
	// Predict bit for bit.
	for i, s := range sums {
		single, err := pred.Predict(s)
		if err != nil {
			t.Fatal(err)
		}
		for m, v := range single {
			if math.Float64bits(batch[i][m]) != math.Float64bits(v) {
				t.Fatalf("batch[%d] differs from Predict at %v: %v vs %v", i, m, batch[i][m], v)
			}
		}
	}

	recs, err := pred.RecommendBatch(ctx, sums, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sums {
		rec, err := pred.Recommend(s, 0.75)
		if err != nil {
			t.Fatal(err)
		}
		if recs[i].Best != rec.Best {
			t.Fatalf("batch recommendation %d selected %v, loop selected %v", i, recs[i].Best, rec.Best)
		}
	}
}

func TestPredictBatchEmptyAndCancelled(t *testing.T) {
	pred := quickPredictor(t)
	out, err := pred.PredictBatch(context.Background(), nil)
	if err != nil || out != nil {
		t.Errorf("empty batch = (%v, %v), want (nil, nil)", out, err)
	}

	ds := quickDataset(t)
	sums := make([]sizeless.Summary, 0, len(ds.Rows))
	for _, row := range ds.Rows {
		sums = append(sums, row.Summaries[sizeless.Mem256])
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pred.PredictBatch(cancelled, sums); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled batch error = %v, want context.Canceled", err)
	}
}

func TestGenerateDatasetCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sizeless.GenerateDataset(ctx,
		sizeless.WithFunctions(10),
		sizeless.WithDuration(2*time.Second),
	)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled campaign error = %v, want context.Canceled", err)
	}
}

func TestGenerateDatasetProgress(t *testing.T) {
	var mu sync.Mutex
	var calls int
	var lastDone, lastTotal int
	_, err := sizeless.GenerateDataset(context.Background(),
		sizeless.WithFunctions(3),
		sizeless.WithRate(10),
		sizeless.WithDuration(2*time.Second),
		sizeless.WithSeed(5),
		sizeless.WithProgress(func(done, total int) {
			mu.Lock()
			calls++
			lastDone, lastTotal = done, total
			mu.Unlock()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 18 || lastDone != 18 || lastTotal != 18 {
		t.Errorf("progress calls=%d last=%d/%d, want 18 calls ending 18/18", calls, lastDone, lastTotal)
	}
}

func TestProviderPipelineGCP(t *testing.T) {
	ctx := context.Background()
	gcp := sizeless.GCPCloudFunctions()
	ds, err := sizeless.GenerateDataset(ctx,
		sizeless.WithProvider(gcp),
		sizeless.WithFunctions(40),
		sizeless.WithRate(10),
		sizeless.WithDuration(4*time.Second),
		sizeless.WithSeed(11),
	)
	if err != nil {
		t.Fatal(err)
	}
	wantSizes := gcp.DefaultSizes()
	if len(ds.Sizes) != len(wantSizes) {
		t.Fatalf("GCP dataset has %d sizes, want %d", len(ds.Sizes), len(wantSizes))
	}
	for i, m := range wantSizes {
		if ds.Sizes[i] != m {
			t.Fatalf("GCP dataset size[%d] = %v, want %v", i, ds.Sizes[i], m)
		}
	}

	pred, err := sizeless.TrainPredictor(ctx, ds,
		sizeless.WithProvider(gcp),
		sizeless.WithHidden(24, 24),
		sizeless.WithEpochs(80),
	)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Provider().Name() != "gcp-cloudfunctions" {
		t.Errorf("provider = %q, want gcp-cloudfunctions", pred.Provider().Name())
	}

	summary, err := sizeless.MonitorFunction(ctx, demoSpec(),
		sizeless.WithProvider(gcp),
		sizeless.WithRate(10),
		sizeless.WithDuration(8*time.Second),
		sizeless.WithSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := pred.Recommend(summary, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if !gcp.Grid().Valid(rec.Best) {
		t.Errorf("GCP recommendation %v not on the GCP grid", rec.Best)
	}
	if len(rec.Options) != len(wantSizes) {
		t.Errorf("GCP recommendation scored %d options, want %d", len(rec.Options), len(wantSizes))
	}
}

func TestMonitorFunctionAzureGridDefault(t *testing.T) {
	// Azure has no 3008MB; monitoring at an off-grid size must fail, and
	// the default memory must land on the Azure grid.
	azure := sizeless.AzureFunctions()
	_, err := sizeless.MonitorFunction(context.Background(), demoSpec(),
		sizeless.WithProvider(azure),
		sizeless.WithMemory(sizeless.Mem3008),
		sizeless.WithDuration(2*time.Second),
	)
	if err == nil {
		t.Error("monitoring at 3008MB on Azure should error (grid caps at 1536MB)")
	}

	sum, err := sizeless.MonitorFunction(context.Background(), demoSpec(),
		sizeless.WithProvider(azure),
		sizeless.WithRate(10),
		sizeless.WithDuration(4*time.Second),
		sizeless.WithSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	if sum.N == 0 {
		t.Error("Azure monitoring produced no samples")
	}
}

func TestProviderRegistryPublicAPI(t *testing.T) {
	names := sizeless.Providers()
	want := map[string]bool{"aws-lambda": false, "gcp-cloudfunctions": false, "azure-functions": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("built-in provider %q not listed", n)
		}
	}
	if _, err := sizeless.ProviderByName("AWS-Lambda"); err != nil {
		t.Errorf("lookup should be case-insensitive: %v", err)
	}
	if _, err := sizeless.ProviderByName("definitely-not-a-cloud"); err == nil {
		t.Error("unknown provider lookup should error")
	}
	if err := sizeless.RegisterProvider(sizeless.AWSLambda()); err == nil {
		t.Error("duplicate registration should error")
	}
}

func TestOptionValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := sizeless.GenerateDataset(ctx); err == nil {
		t.Error("GenerateDataset without WithFunctions should error")
	}
	if _, err := sizeless.GenerateDataset(ctx, sizeless.WithFunctions(-1)); err == nil {
		t.Error("negative function count should error")
	}
	if _, err := sizeless.GenerateDataset(ctx, sizeless.WithFunctions(1), sizeless.WithProvider(nil)); err == nil {
		t.Error("nil provider should error")
	}
	if _, err := sizeless.GenerateDataset(ctx, sizeless.WithFunctions(1), sizeless.WithTradeoff(2)); err == nil {
		t.Error("out-of-range tradeoff should error")
	}
	if _, err := sizeless.GenerateDataset(ctx, sizeless.WithFunctions(1), sizeless.WithTradeoff(math.NaN())); err == nil {
		t.Error("NaN tradeoff should error")
	}
	if _, err := sizeless.GenerateDataset(ctx, sizeless.WithFunctions(1), sizeless.WithShards(0)); err == nil {
		t.Error("non-positive shard count should error")
	}
	if _, err := sizeless.GenerateDataset(ctx, sizeless.WithFunctions(1), sizeless.WithShards(-4)); err == nil {
		t.Error("negative shard count should error")
	}
	if _, err := sizeless.GenerateDataset(ctx, sizeless.WithFunctions(1), sizeless.WithEarlyStopping(0)); err == nil {
		t.Error("non-positive patience should error")
	}
	if _, err := sizeless.GenerateDataset(ctx, sizeless.WithFunctions(1), sizeless.WithValidationSplit(1)); err == nil {
		t.Error("validation split of 1 should error")
	}
	if _, err := sizeless.GenerateDataset(ctx, sizeless.WithFunctions(1), sizeless.WithValidationSplit(-0.2)); err == nil {
		t.Error("negative validation split should error")
	}
	if _, err := sizeless.GenerateDataset(ctx, sizeless.WithFunctions(1), sizeless.WithValidationSplit(math.NaN())); err == nil {
		t.Error("NaN validation split should error")
	}
}

// TestServiceShardedFleetIngest drives the public fleet path: a sharded
// service, one concurrent IngestBatch over many functions, and concurrent
// readers — the WithShards/WithWorkers knobs end to end.
func TestServiceShardedFleetIngest(t *testing.T) {
	pred := quickPredictor(t)
	svc, err := pred.NewService(
		sizeless.WithMinWindow(50),
		sizeless.WithShards(4),
		sizeless.WithWorkers(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	batch := fleetsynth.Batch(40, 60, 91, 1)
	statuses, err := svc.IngestBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(statuses) != len(batch) {
		t.Fatalf("got %d statuses, want %d", len(statuses), len(batch))
	}
	for id, st := range statuses {
		if !st.HasRecommendation {
			t.Errorf("%s: no recommendation after a full window", id)
		}
		if st.Observed != 60 {
			t.Errorf("%s: observed %d, want 60", id, st.Observed)
		}
	}
	sum := svc.Summarize()
	if sum.Functions != len(batch) || sum.WithRecommend != len(batch) {
		t.Errorf("summary %+v, want %d tracked and recommended", sum, len(batch))
	}
	if got := len(svc.Fleet()); got != len(batch) {
		t.Errorf("fleet lists %d functions, want %d", got, len(batch))
	}
}

func TestPredictorSaveLoadRoundTrip(t *testing.T) {
	ds := quickDataset(t)
	pred, err := sizeless.TrainPredictor(context.Background(), ds,
		sizeless.WithHidden(24), sizeless.WithEpochs(60))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := sizeless.LoadPredictor(&buf)
	if err != nil {
		t.Fatal(err)
	}

	summary, err := sizeless.MonitorFunction(context.Background(), demoSpec(),
		sizeless.WithRate(10), sizeless.WithDuration(5*time.Second), sizeless.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	a, err := pred.Predict(summary)
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Predict(summary)
	if err != nil {
		t.Fatal(err)
	}
	for m, v := range a {
		if b[m] != v {
			t.Fatalf("loaded predictor differs at %v: %v vs %v", m, v, b[m])
		}
	}
}

func TestDatasetCSVRoundTripViaFacade(t *testing.T) {
	ds := quickDataset(t)
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := sizeless.ReadDatasetCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != len(ds.Rows) {
		t.Fatalf("round trip lost rows: %d vs %d", len(back.Rows), len(ds.Rows))
	}
	// A predictor trained on the round-tripped dataset behaves identically.
	ctx := context.Background()
	p1, err := sizeless.TrainPredictor(ctx, ds, sizeless.WithHidden(16), sizeless.WithEpochs(30))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := sizeless.TrainPredictor(ctx, back, sizeless.WithHidden(16), sizeless.WithEpochs(30))
	if err != nil {
		t.Fatal(err)
	}
	s := ds.Rows[0].Summaries[sizeless.Mem256]
	a, err := p1.Predict(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p2.Predict(s)
	if err != nil {
		t.Fatal(err)
	}
	for m := range a {
		if a[m] != b[m] {
			t.Fatalf("CSV round trip changed training outcome at %v", m)
		}
	}
}

func TestRecommendTradeoffValidation(t *testing.T) {
	ds := quickDataset(t)
	pred := quickPredictor(t)
	summary := ds.Rows[0].Summaries[sizeless.Mem256]
	if _, err := pred.Recommend(summary, 1.5); err == nil {
		t.Error("tradeoff > 1 should error")
	}
	if _, err := pred.Recommend(summary, -0.2); err == nil {
		t.Error("tradeoff < 0 should error")
	}
}

func TestCommonSizes(t *testing.T) {
	aws, gcp, azure := sizeless.AWSLambda(), sizeless.GCPCloudFunctions(), sizeless.AzureFunctions()
	got := sizeless.CommonSizes(aws, gcp, azure)
	want := []sizeless.MemorySize{128, 256, 512, 1024}
	if len(got) != len(want) {
		t.Fatalf("CommonSizes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CommonSizes = %v, want %v", got, want)
		}
	}
	// A single provider's common grid is its own default grid.
	solo := sizeless.CommonSizes(aws)
	if len(solo) != 6 {
		t.Errorf("CommonSizes(aws) = %v, want the six paper sizes", solo)
	}
	if sizeless.CommonSizes() != nil {
		t.Error("CommonSizes() should be nil")
	}
}

func TestAdaptCrossProvider(t *testing.T) {
	ctx := context.Background()
	aws, gcp := sizeless.AWSLambda(), sizeless.GCPCloudFunctions()
	portable := sizeless.CommonSizes(aws, gcp)

	awsDS, err := sizeless.GenerateDataset(ctx,
		sizeless.WithProvider(aws),
		sizeless.WithSizes(portable...),
		sizeless.WithFunctions(40),
		sizeless.WithRate(10),
		sizeless.WithDuration(4*time.Second),
		sizeless.WithSeed(11),
	)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := sizeless.TrainPredictor(ctx, awsDS,
		sizeless.WithProvider(aws),
		sizeless.WithHidden(32, 32),
		sizeless.WithEpochs(150),
	)
	if err != nil {
		t.Fatal(err)
	}

	gcpDS, err := sizeless.GenerateDataset(ctx,
		sizeless.WithProvider(gcp),
		sizeless.WithSizes(pred.Sizes()...),
		sizeless.WithFunctions(15),
		sizeless.WithRate(10),
		sizeless.WithDuration(4*time.Second),
		sizeless.WithSeed(12),
	)
	if err != nil {
		t.Fatal(err)
	}

	adapted, err := pred.Adapt(ctx, gcpDS,
		sizeless.WithProvider(gcp),
		sizeless.WithFreezeLayers(1),
		sizeless.WithFineTuneEpochs(60),
	)
	if err != nil {
		t.Fatal(err)
	}

	// The adapted predictor is bound to the target; the source is untouched.
	if adapted.Provider().Name() != "gcp-cloudfunctions" {
		t.Errorf("adapted provider = %q", adapted.Provider().Name())
	}
	if pred.Provider().Name() != "aws-lambda" {
		t.Errorf("source provider changed: %q", pred.Provider().Name())
	}
	if adapted.Base() != pred.Base() {
		t.Errorf("base changed: %v vs %v", adapted.Base(), pred.Base())
	}

	prov := adapted.Provenance()
	if !prov.FineTuned || prov.Source != "aws-lambda" || prov.Target != "gcp-cloudfunctions" {
		t.Errorf("provenance = %+v", prov)
	}
	if prov.FreezeLayers != 1 || prov.Epochs != 60 || prov.AdaptRows != 15 {
		t.Errorf("provenance settings = %+v", prov)
	}
	if pred.Provenance() != (sizeless.Provenance{}) {
		t.Errorf("source predictor gained provenance: %+v", pred.Provenance())
	}

	// Provenance survives Save/Load, and the loaded model still predicts.
	var buf bytes.Buffer
	if err := adapted.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := sizeless.LoadPredictor(&buf, sizeless.WithProvider(gcp))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Provenance() != prov {
		t.Errorf("provenance lost: %+v vs %+v", loaded.Provenance(), prov)
	}
	sum := gcpDS.Rows[0].Summaries[loaded.Base()]
	if _, err := loaded.Recommend(sum, 0.75); err != nil {
		t.Errorf("adapted model cannot recommend: %v", err)
	}

	// Evaluate works on datasets covering the predictor's grid.
	if _, err := adapted.Evaluate(gcpDS); err != nil {
		t.Errorf("evaluate: %v", err)
	}

	// Adapting with every layer frozen is rejected.
	if _, err := pred.Adapt(ctx, gcpDS, sizeless.WithFreezeLayers(99)); err == nil {
		t.Error("freezing more layers than the network has should error")
	}
	// Cancelled context aborts adaptation.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := pred.Adapt(cancelled, gcpDS, sizeless.WithFineTuneEpochs(500)); err == nil {
		t.Error("cancelled context should abort Adapt")
	}
}

func TestAdaptOptionValidation(t *testing.T) {
	pred := quickPredictor(t)
	ds := quickDataset(t)
	if _, err := pred.Adapt(context.Background(), ds, sizeless.WithFreezeLayers(-1)); err == nil {
		t.Error("negative freeze should error")
	}
	if _, err := pred.Adapt(context.Background(), ds, sizeless.WithFineTuneEpochs(0)); err == nil {
		t.Error("zero fine-tune epochs should error")
	}
}

// TestAdaptEarlyStoppingCurbsDiagonalOverfit is the regression test for
// the tiny-corpus overfit: adapting a predictor to a small dataset from
// the *same* provider (a diagonal pair of the transfer matrix) with the
// full fixed 100-epoch budget degrades held-out accuracy relative to the
// stale model — there is no platform change to learn, so every epoch past
// convergence just memorizes the tiny corpus. With WithEarlyStopping the
// stale-vs-adapted gap must shrink, and the recorded provenance must show
// the budget was actually cut.
func TestAdaptEarlyStoppingCurbsDiagonalOverfit(t *testing.T) {
	ctx := context.Background()
	pred := quickPredictor(t)
	holdout := quickDataset(t)

	// A tiny same-provider adaptation corpus, disjoint from the training
	// and holdout data by seed.
	tiny, err := sizeless.GenerateDataset(ctx,
		sizeless.WithFunctions(10),
		sizeless.WithRate(10),
		sizeless.WithDuration(4*time.Second),
		sizeless.WithSeed(77),
	)
	if err != nil {
		t.Fatal(err)
	}

	stale, err := pred.Evaluate(holdout)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := pred.Adapt(ctx, tiny, sizeless.WithFineTuneEpochs(100))
	if err != nil {
		t.Fatal(err)
	}
	stopped, err := pred.Adapt(ctx, tiny,
		sizeless.WithFineTuneEpochs(100),
		sizeless.WithEarlyStopping(10),
	)
	if err != nil {
		t.Fatal(err)
	}

	fixedEval, err := fixed.Evaluate(holdout)
	if err != nil {
		t.Fatal(err)
	}
	stoppedEval, err := stopped.Evaluate(holdout)
	if err != nil {
		t.Fatal(err)
	}

	// The overfit gap (adapted minus stale on held-out MAPE; positive =
	// adaptation hurt) must shrink with early stopping on.
	fixedGap := fixedEval.MAPE - stale.MAPE
	stoppedGap := stoppedEval.MAPE - stale.MAPE
	if stoppedGap >= fixedGap {
		t.Errorf("early stopping did not shrink the diagonal overfit gap: fixed %+.4f vs stopped %+.4f (stale MAPE %.4f)",
			fixedGap, stoppedGap, stale.MAPE)
	}

	// Provenance records the cut: fewer epochs than the budget, flagged as
	// early-stopped; the fixed-budget run spent it all.
	if prov := stopped.Provenance(); !prov.EarlyStopped || prov.EpochsSpent >= 100 || prov.EpochsSpent == 0 {
		t.Errorf("early-stopped provenance = %+v, want EarlyStopped with 0 < EpochsSpent < 100", prov)
	}
	if prov := fixed.Provenance(); prov.EarlyStopped || prov.EpochsSpent != 100 {
		t.Errorf("fixed-budget provenance = %+v, want EpochsSpent == 100", prov)
	}

	// WithValidationSplit alone (no patience) must still activate the
	// split: the full budget runs, but best-validation weights are
	// restored, so the result differs from the fixed-budget adapt.
	valOnly, err := pred.Adapt(ctx, tiny,
		sizeless.WithFineTuneEpochs(100),
		sizeless.WithValidationSplit(0.25),
	)
	if err != nil {
		t.Fatal(err)
	}
	if prov := valOnly.Provenance(); prov.EarlyStopped || prov.EpochsSpent != 100 {
		t.Errorf("val-split-only provenance = %+v, want full budget without early stop", prov)
	}
	s := holdout.Rows[0].Summaries[pred.Base()]
	fixedPred, err := fixed.Predict(s)
	if err != nil {
		t.Fatal(err)
	}
	valPred, err := valOnly.Predict(s)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for m, v := range fixedPred {
		if valPred[m] != v {
			same = false
		}
	}
	if same {
		t.Error("WithValidationSplit alone was a no-op: predictions identical to the fixed-budget adapt")
	}
}
