package core

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"sizeless/internal/dataset"
	"sizeless/internal/features"
	"sizeless/internal/fngen"
	"sizeless/internal/harness"
	"sizeless/internal/monitoring"
	"sizeless/internal/nn"
	"sizeless/internal/platform"
	"sizeless/internal/xrand"
)

var (
	dsOnce sync.Once
	dsVal  *dataset.Dataset
	dsErr  error
)

// testDataset measures a small synthetic-function population end-to-end
// (generate → deploy → load → aggregate) — shared across core tests.
func testDataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	dsOnce.Do(func() {
		gen := fngen.New(xrand.New(1234), fngen.Options{})
		specs, err := gen.Generate(90)
		if err != nil {
			dsErr = err
			return
		}
		opts := harness.Options{
			Rate:     10,
			Duration: 6 * time.Second,
			Seed:     1,
			Workers:  8,
		}
		dsVal, dsErr = harness.BuildDataset(context.Background(), opts, specs)
	})
	if dsErr != nil {
		t.Fatalf("building test dataset: %v", dsErr)
	}
	return dsVal
}

// smallConfig is a fast model configuration for tests.
func smallConfig(base platform.MemorySize) ModelConfig {
	cfg := DefaultModelConfig(base)
	cfg.Hidden = []int{48, 48}
	cfg.Epochs = 300
	return cfg
}

func TestTrainAndPredictLearnsScaling(t *testing.T) {
	ds := testDataset(t)
	model, err := Train(context.Background(), ds, smallConfig(platform.Mem256))
	if err != nil {
		t.Fatal(err)
	}
	// In-sample evaluation: the model must beat the trivial
	// "no-speedup" predictor (all ratios = 1) by a wide margin.
	m, err := Evaluate(model, ds)
	if err != nil {
		t.Fatal(err)
	}
	if m.MAPE > 0.25 {
		t.Errorf("in-sample MAPE = %v, want < 0.25", m.MAPE)
	}
	if m.R2 < 0.7 {
		t.Errorf("in-sample R2 = %v, want > 0.7", m.R2)
	}

	// Trivial predictor baseline for comparison.
	targets := features.TargetSizes(ds.Sizes, platform.Mem256)
	trueY, err := features.Targets(ds, platform.Mem256, targets)
	if err != nil {
		t.Fatal(err)
	}
	var trivialSSE, modelSSE float64
	for i, row := range ds.Rows {
		ratios, err := model.PredictRatios(row.Summaries[platform.Mem256])
		if err != nil {
			t.Fatal(err)
		}
		for j := range targets {
			dTrivial := 1 - trueY[i][j]
			dModel := ratios[j] - trueY[i][j]
			trivialSSE += dTrivial * dTrivial
			modelSSE += dModel * dModel
		}
	}
	if modelSSE >= trivialSSE/2 {
		t.Errorf("model SSE %v should be far below trivial predictor SSE %v", modelSSE, trivialSSE)
	}
}

func TestPredictReturnsAllSizes(t *testing.T) {
	ds := testDataset(t)
	model, err := Train(context.Background(), ds, smallConfig(platform.Mem256))
	if err != nil {
		t.Fatal(err)
	}
	row := ds.Rows[0]
	pred, err := model.Predict(row.Summaries[platform.Mem256])
	if err != nil {
		t.Fatal(err)
	}
	if len(pred) != 6 {
		t.Fatalf("predictions for %d sizes, want 6", len(pred))
	}
	baseMs, _ := row.ExecTimeMs(platform.Mem256)
	if pred[platform.Mem256] != baseMs {
		t.Error("base size should report the monitored value")
	}
	for m, v := range pred {
		if v <= 0 || math.IsNaN(v) {
			t.Errorf("prediction for %v = %v", m, v)
		}
	}
}

func TestPredictErrorCases(t *testing.T) {
	ds := testDataset(t)
	model, err := Train(context.Background(), ds, smallConfig(platform.Mem256))
	if err != nil {
		t.Fatal(err)
	}
	var zero monitoring.Summary
	if _, err := model.Predict(zero); err == nil {
		t.Error("zero execution time should error")
	}
}

func TestTrainErrors(t *testing.T) {
	empty := dataset.New(nil)
	if _, err := Train(context.Background(), empty, smallConfig(platform.Mem256)); err == nil {
		t.Error("empty dataset should error")
	}
	ds := testDataset(t)
	cfg := smallConfig(platform.Mem256)
	cfg.Sizes = []platform.MemorySize{platform.Mem256} // no targets
	if _, err := Train(context.Background(), ds, cfg); err == nil {
		t.Error("no target sizes should error")
	}
	cfg = smallConfig(platform.MemorySize(192)) // unmeasured base
	if _, err := Train(context.Background(), ds, cfg); err == nil {
		t.Error("unmeasured base should error")
	}
	cfg = smallConfig(platform.Mem256)
	cfg.ValidationFraction = math.NaN()
	if _, err := Train(context.Background(), ds, cfg); err == nil {
		t.Error("NaN validation fraction should error")
	}
}

func TestCrossValidate(t *testing.T) {
	ds := testDataset(t)
	cfg := smallConfig(platform.Mem256)
	cfg.Epochs = 200
	for _, iterations := range []int{0, -1} {
		if _, err := CrossValidate(context.Background(), ds, cfg, 4, iterations, 7); err == nil {
			t.Errorf("%d iterations should error", iterations)
		}
	}
	m, err := CrossValidate(context.Background(), ds, cfg, 4, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if m.MSE <= 0 {
		t.Errorf("CV MSE = %v, want > 0", m.MSE)
	}
	if m.MAPE > 0.45 {
		t.Errorf("CV MAPE = %v, implausibly bad", m.MAPE)
	}
	if m.R2 > 1 {
		t.Errorf("CV R2 = %v > 1", m.R2)
	}
	if m.ExpVar > 1 {
		t.Errorf("CV ExpVar = %v > 1", m.ExpVar)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := testDataset(t)
	model, err := Train(context.Background(), ds, smallConfig(platform.Mem256))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := ds.Rows[0].Summaries[platform.Mem256]
	p1, err := model.PredictRatios(s)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := back.PredictRatios(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("loaded model predicts differently at target %d", i)
		}
	}
	if _, err := LoadModel(bytes.NewBufferString("{")); err == nil {
		t.Error("corrupt model should error")
	}
}

func TestSFSEvaluatorAndForwardSelect(t *testing.T) {
	ds := testDataset(t)
	cfg := smallConfig(platform.Mem256)
	cfg.Hidden = []int{24}
	cfg.Epochs = 30

	feats := features.MeanFeatures()
	x, err := features.Matrix(ds, platform.Mem256, feats)
	if err != nil {
		t.Fatal(err)
	}
	targets := features.TargetSizes(ds.Sizes, platform.Mem256)
	y, err := features.Targets(ds, platform.Mem256, targets)
	if err != nil {
		t.Fatal(err)
	}
	eval := SFSEvaluator(context.Background(), cfg, 3, 11)
	res, err := features.ForwardSelect(x, y, 6, 3, eval) // first 6 candidates, pick 3
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 3 || len(res.Curve) != 3 {
		t.Fatalf("selection shape: %d order, %d curve", len(res.Order), len(res.Curve))
	}
	for _, e := range res.Curve {
		if e <= 0 || math.IsNaN(e) {
			t.Errorf("curve value %v invalid", e)
		}
	}
}

func TestGridSearchRanksConfigs(t *testing.T) {
	ds := testDataset(t)
	base := smallConfig(platform.Mem256)
	base.Epochs = 30
	grid := GridSpec{
		Optimizers: []nn.Optimizer{nn.Adam},
		Losses:     []nn.Loss{nn.MSE, nn.MAPE},
		Epochs:     []int{30},
		Neurons:    []int{16},
		L2s:        []float64{0, 0.01},
		Layers:     []int{2},
	}
	if grid.Size() != 4 {
		t.Fatalf("grid size = %d, want 4", grid.Size())
	}
	results, err := GridSearch(context.Background(), ds, base, grid, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].Metrics.MSE < results[i-1].Metrics.MSE {
			t.Error("results not sorted by MSE")
		}
	}
	if got := len(results[0].Config.Hidden); got != 2 {
		t.Errorf("winning config has %d layers, want 2", got)
	}
}

func TestPaperGridMatchesTable2(t *testing.T) {
	grid := PaperGrid()
	if grid.Size() != 1296 {
		t.Errorf("paper grid size = %d, want 1296 (Table 2)", grid.Size())
	}
}

func TestPartialDependence(t *testing.T) {
	ds := testDataset(t)
	model, err := Train(context.Background(), ds, smallConfig(platform.Mem128))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := model.FeatureIndex("rel_userCPUTime")
	if err != nil {
		t.Fatal(err)
	}
	pdp, err := PartialDependence(model, ds, idx, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(pdp.X) != 9 {
		t.Fatalf("PDP has %d grid points, want 9", len(pdp.X))
	}
	if pdp.X[0] != 0 || pdp.X[len(pdp.X)-1] != 1 {
		t.Errorf("PDP grid should span [0,1]: %v", pdp.X)
	}
	if len(pdp.Speedup) != 5 {
		t.Fatalf("PDP covers %d targets, want 5", len(pdp.Speedup))
	}
	// The paper's headline PDP finding: higher relative user-CPU time ⇒
	// larger predicted speedup at bigger sizes (Fig. 5, top-left). On this
	// deliberately tiny dataset the extreme grid points are noisy, so
	// assert the robust form: the curve's peak clearly exceeds its start,
	// and the 1024 MB curve rises end to end.
	curve := pdp.Speedup[platform.Mem3008]
	peak := curve[0]
	for _, v := range curve {
		if v > peak {
			peak = v
		}
	}
	if peak < curve[0]*1.15 {
		t.Errorf("speedup at 3008MB should grow with CPU intensity: start %v, peak %v", curve[0], peak)
	}
	mid := pdp.Speedup[platform.Mem1024]
	if mid[len(mid)-1] <= mid[0] {
		t.Errorf("speedup at 1024MB should grow with CPU intensity: %v -> %v", mid[0], mid[len(mid)-1])
	}
	// Errors.
	if _, err := PartialDependence(model, ds, -1, 5); err == nil {
		t.Error("bad feature index should error")
	}
	if _, err := PartialDependence(model, ds, 0, 1); err == nil {
		t.Error("single grid point should error")
	}
	if _, err := model.FeatureIndex("nope"); err == nil {
		t.Error("unknown feature name should error")
	}
}

func TestFineTune(t *testing.T) {
	ds := testDataset(t)
	model, err := Train(context.Background(), ds, smallConfig(platform.Mem256))
	if err != nil {
		t.Fatal(err)
	}
	// Fine-tune on a subset (a stand-in for a small new-platform dataset).
	subset := ds.Subset([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	tuned, err := FineTune(context.Background(), model, subset, FineTuneOptions{Epochs: 30})
	if err != nil {
		t.Fatal(err)
	}
	// The original model is untouched: predictions unchanged.
	s := ds.Rows[20].Summaries[platform.Mem256]
	before, err := model.PredictRatios(s)
	if err != nil {
		t.Fatal(err)
	}
	tunedPred, err := tuned.PredictRatios(s)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range before {
		if before[i] != tunedPred[i] {
			same = false
		}
	}
	if same {
		t.Error("fine-tuning should change the clone's predictions")
	}
	again, err := model.PredictRatios(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i] != again[i] {
			t.Fatal("fine-tuning mutated the original model")
		}
	}
	// Errors.
	if _, err := FineTune(context.Background(), model, dataset.New(nil), FineTuneOptions{}); err == nil {
		t.Error("empty fine-tune dataset should error")
	}
}

// TestTrainEarlyStoppingIsDeterministic: training and fine-tuning produce
// the same model bytes for any worker count and ensemble size, on the
// budget path and on the validation path with and without patience. The
// worker counts cover one slice per member (workers ≥ members), uneven
// slices (23 epochs over 2, 3 or 4 workers), and members that stop early
// in the middle of a slice.
func TestTrainEarlyStoppingIsDeterministic(t *testing.T) {
	ds := testDataset(t)
	adapt := ds.Subset([]int{3, 5, 8, 13, 21, 34, 55, 89})
	fingerprint := func(m *Model) string {
		t.Helper()
		fp, err := m.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	modes := []struct {
		name               string
		patience           int
		validationFraction float64
	}{
		{"budget", 0, 0},
		{"split", 0, 0.25},
		{"patience", 3, 0},
	}
	for _, ensemble := range []int{1, 2, 3, 5} {
		for _, mode := range modes {
			var want, wantTuned string
			var wantProv Provenance
			for _, workers := range []int{1, 2, 3, 4} {
				cfg := smallConfig(platform.Mem256)
				cfg.Hidden = []int{12, 12}
				cfg.Epochs = 23
				cfg.EnsembleSize = ensemble
				cfg.Patience = mode.patience
				cfg.ValidationFraction = mode.validationFraction
				cfg.Workers = workers
				m, err := Train(context.Background(), ds, cfg)
				if err != nil {
					t.Fatal(err)
				}
				tuned, err := FineTune(context.Background(), m, adapt, FineTuneOptions{
					Epochs:             29,
					Patience:           mode.patience,
					ValidationFraction: mode.validationFraction,
					Seed:               7,
					Workers:            workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				got, gotTuned, gotProv := fingerprint(m), fingerprint(tuned), tuned.Provenance()
				if workers == 1 {
					want, wantTuned, wantProv = got, gotTuned, gotProv
					continue
				}
				if got != want {
					t.Errorf("ensemble %d, %s: Train with %d workers = %s, with 1 = %s", ensemble, mode.name, workers, got, want)
				}
				if gotTuned != wantTuned || gotProv != wantProv {
					t.Errorf("ensemble %d, %s: FineTune with %d workers = %s %+v, with 1 = %s %+v",
						ensemble, mode.name, workers, gotTuned, gotProv, wantTuned, wantProv)
				}
			}
			if mode.patience > 0 && !wantProv.EarlyStopped {
				t.Errorf("ensemble %d: no member stopped early, so the sweep misses early finishes", ensemble)
			}
		}
	}
}

// TestTrainValidationFractionRejected pins the config guard.
func TestTrainValidationFractionRejected(t *testing.T) {
	ds := testDataset(t)
	cfg := smallConfig(platform.Mem256)
	cfg.ValidationFraction = 1.2
	if _, err := Train(context.Background(), ds, cfg); err == nil {
		t.Error("validation fraction above 1 should be rejected")
	}
}
