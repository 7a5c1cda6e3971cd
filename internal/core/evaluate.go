package core

import (
	"context"
	"errors"
	"fmt"

	"sizeless/internal/dataset"
	"sizeless/internal/features"
	"sizeless/internal/nn"
	"sizeless/internal/pool"
	"sizeless/internal/stats"
	"sizeless/internal/xrand"
)

// CVMetrics bundles the regression-quality metrics of paper Table 3,
// computed over ratio predictions pooled across folds and targets.
type CVMetrics struct {
	MSE    float64
	MAPE   float64
	R2     float64
	ExpVar float64
}

// CrossValidate runs `iterations` independent rounds of k-fold
// cross-validation with random splits (the paper uses ten iterations of
// five-fold CV, §3.4) and returns pooled metrics. It needs at least one
// iteration.
func CrossValidate(ctx context.Context, ds *dataset.Dataset, cfg ModelConfig, k, iterations int, seed int64) (CVMetrics, error) {
	cfg = cfg.withDefaults()
	if iterations < 1 {
		return CVMetrics{}, fmt.Errorf("core: %d cross-validation iterations, want at least 1", iterations)
	}
	// Folds are independent experiments; run them through the shared
	// worker pool (bounded by cfg.Workers) and merge in fold order so the
	// pooled metrics are deterministic. Each fold trains its ensemble
	// sequentially — the fold pool owns the parallelism budget.
	type foldJob struct {
		it, fi int
		fold   []int
	}
	var jobs []foldJob
	root := xrand.New(seed)
	foldsPerIt := 0
	for it := 0; it < iterations; it++ {
		folds, err := ds.KFold(k, root.DeriveIndexed("cv", it))
		if err != nil {
			return CVMetrics{}, fmt.Errorf("core: %w", err)
		}
		foldsPerIt = len(folds)
		for fi, fold := range folds {
			jobs = append(jobs, foldJob{it: it, fi: fi, fold: fold})
		}
	}
	predsPer := make([][]float64, len(jobs))
	truthsPer := make([][]float64, len(jobs))
	err := pool.Run(ctx, len(jobs), cfg.Workers, func(j int) error {
		job := jobs[j]
		train := ds.Complement(job.fold)
		test := ds.Subset(job.fold)
		foldCfg := cfg
		foldCfg.Seed = cfg.Seed + int64(job.it*foldsPerIt+job.fi)
		foldCfg.Workers = 1
		model, err := Train(ctx, train, foldCfg)
		if err != nil {
			return err
		}
		var perr error
		predsPer[j], truthsPer[j], perr = ratioPairs(model, test)
		return perr
	})
	if err != nil {
		return CVMetrics{}, err
	}
	var preds, truths []float64
	for j := range jobs {
		preds = append(preds, predsPer[j]...)
		truths = append(truths, truthsPer[j]...)
	}
	return metricsFromPairs(preds, truths)
}

// Evaluate scores a trained model on a held-out dataset.
func Evaluate(model *Model, ds *dataset.Dataset) (CVMetrics, error) {
	preds, truths, err := ratioPairs(model, ds)
	if err != nil {
		return CVMetrics{}, err
	}
	return metricsFromPairs(preds, truths)
}

// ratioPairs collects (predicted, true) ratio pairs over all rows and
// targets of ds.
func ratioPairs(model *Model, ds *dataset.Dataset) (preds, truths []float64, err error) {
	targets := model.targets
	trueY, err := features.Targets(ds, model.cfg.Base, targets)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	for i, row := range ds.Rows {
		s, ok := row.Summaries[model.cfg.Base]
		if !ok {
			return nil, nil, fmt.Errorf("core: row %q missing base size", row.FunctionID)
		}
		ratios, err := model.PredictRatios(s)
		if err != nil {
			return nil, nil, err
		}
		preds = append(preds, ratios...)
		truths = append(truths, trueY[i]...)
	}
	return preds, truths, nil
}

func metricsFromPairs(preds, truths []float64) (CVMetrics, error) {
	if len(preds) == 0 {
		return CVMetrics{}, errors.New("core: no prediction pairs")
	}
	var m CVMetrics
	var err error
	if m.MSE, err = stats.MSE(preds, truths); err != nil {
		return CVMetrics{}, err
	}
	if m.MAPE, err = stats.MAPE(preds, truths); err != nil {
		return CVMetrics{}, err
	}
	if m.R2, err = stats.R2(preds, truths); err != nil {
		return CVMetrics{}, err
	}
	if m.ExpVar, err = stats.ExplainedVariance(preds, truths); err != nil {
		return CVMetrics{}, err
	}
	return m, nil
}

// SFSEvaluator adapts the model-training pipeline into a features.Evaluator
// for sequential forward selection: it trains a (typically smaller) network
// on the provided candidate columns under k-fold CV and returns the MSE.
// The candidate matrices arrive unscaled; scaling happens per fold.
func SFSEvaluator(ctx context.Context, cfg ModelConfig, k int, seed int64) features.Evaluator {
	cfg = cfg.withDefaults()
	return func(x [][]float64, y [][]float64) (float64, error) {
		if len(x) < k {
			return 0, errors.New("core: not enough rows for SFS folds")
		}
		rng := xrand.New(seed).Derive("sfs")
		perm := rng.Perm(len(x))
		folds := make([][]int, k)
		for i, idx := range perm {
			folds[i%k] = append(folds[i%k], idx)
		}

		var preds, truths []float64
		for fi, fold := range folds {
			inFold := make(map[int]bool, len(fold))
			for _, i := range fold {
				inFold[i] = true
			}
			var trX, trY, teX, teY [][]float64
			for i := range x {
				if inFold[i] {
					teX = append(teX, x[i])
					teY = append(teY, y[i])
				} else {
					trX = append(trX, x[i])
					trY = append(trY, y[i])
				}
			}
			scaler, net, err := fitAndTrain(ctx, trX, trY, cfg, int64(fi))
			if err != nil {
				return 0, err
			}
			for i := range teX {
				scaled, err := scaler.Transform(teX[i])
				if err != nil {
					return 0, err
				}
				p, err := net.Predict(scaled)
				if err != nil {
					return 0, err
				}
				preds = append(preds, p...)
				truths = append(truths, teY[i]...)
			}
		}
		mse, err := stats.MSE(preds, truths)
		if err != nil {
			return 0, err
		}
		return mse, nil
	}
}

// fitAndTrain standardizes trX and trains a network per cfg on the
// candidate columns. Used by the SFS evaluator, where the input width
// varies per candidate set.
func fitAndTrain(ctx context.Context, trX, trY [][]float64, cfg ModelConfig, seedOffset int64) (*nn.Scaler, *nn.Network, error) {
	scaler, err := nn.FitScaler(trX)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	xs, err := scaler.TransformBatch(trX)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	net, err := nn.New(nn.Config{
		Inputs:    len(trX[0]),
		Outputs:   len(trY[0]),
		Hidden:    cfg.Hidden,
		Optimizer: cfg.Optimizer,
		Loss:      cfg.Loss,
		L2:        cfg.L2,
		Epochs:    cfg.Epochs,
		Seed:      cfg.Seed + seedOffset,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	if _, err := net.Train(ctx, xs, trY); err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	return scaler, net, nil
}
