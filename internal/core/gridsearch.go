package core

import (
	"context"
	"errors"
	"sort"

	"sizeless/internal/dataset"
	"sizeless/internal/nn"
	"sizeless/internal/pool"
)

// GridSpec enumerates the hyperparameter grid of paper Table 2.
type GridSpec struct {
	Optimizers []nn.Optimizer
	Losses     []nn.Loss
	Epochs     []int
	Neurons    []int
	L2s        []float64
	Layers     []int
}

// PaperGrid returns the exact parameter ranges of Table 2 (1296 configs).
func PaperGrid() GridSpec {
	return GridSpec{
		Optimizers: []nn.Optimizer{nn.SGD, nn.Adam, nn.Adagrad},
		Losses:     []nn.Loss{nn.MSE, nn.MAE, nn.MAPE},
		Epochs:     []int{200, 500, 1000},
		Neurons:    []int{64, 128, 256},
		L2s:        []float64{0, 0.0001, 0.001, 0.01},
		Layers:     []int{2, 3, 4, 5},
	}
}

// Size returns the number of configurations in the grid.
func (g GridSpec) Size() int {
	return len(g.Optimizers) * len(g.Losses) * len(g.Epochs) * len(g.Neurons) * len(g.L2s) * len(g.Layers)
}

// GridResult scores one configuration.
type GridResult struct {
	Config  ModelConfig
	Metrics CVMetrics
}

// Configs expands the grid into the concrete model configurations, in
// the deterministic enumeration order of the paper's Table 2 axes.
func (g GridSpec) Configs(base ModelConfig) []ModelConfig {
	cfgs := make([]ModelConfig, 0, g.Size())
	for _, opt := range g.Optimizers {
		for _, loss := range g.Losses {
			for _, epochs := range g.Epochs {
				for _, neurons := range g.Neurons {
					for _, l2 := range g.L2s {
						for _, layers := range g.Layers {
							cfg := base
							cfg.Optimizer = opt
							cfg.Loss = loss
							cfg.Epochs = epochs
							cfg.L2 = l2
							cfg.Hidden = make([]int, layers)
							for i := range cfg.Hidden {
								cfg.Hidden[i] = neurons
							}
							cfgs = append(cfgs, cfg)
						}
					}
				}
			}
		}
	}
	return cfgs
}

// GridSearch evaluates every configuration in the grid with k-fold CV and
// returns the results sorted by ascending MSE (best first) — the paper's
// exhaustive Table-2 sweep and the model selection the Table-2
// experiment runs. GridSearchHalving finds the same quality of winner for
// about half the epoch budget, but only as the benchgate's search-pair
// candidate and the subject of the goldenHalving pins. Configurations
// run concurrently through the shared worker pool, bounded by base.Workers
// (0 = GOMAXPROCS); every configuration reuses the same CV seed, so the
// ranking is identical for any worker count. Cancelling ctx abandons
// unstarted configurations and returns the context's error.
func GridSearch(ctx context.Context, ds *dataset.Dataset, base ModelConfig, grid GridSpec, k int, seed int64) ([]GridResult, error) {
	if grid.Size() == 0 {
		return nil, errors.New("core: empty hyperparameter grid")
	}
	cfgs := grid.Configs(base)
	results := make([]GridResult, len(cfgs))
	err := pool.Run(ctx, len(cfgs), base.Workers, func(i int) error {
		cfg := cfgs[i]
		// The configuration pool owns the parallelism budget; folds and
		// ensemble members inside each configuration run sequentially.
		cfg.Workers = 1
		m, err := CrossValidate(ctx, ds, cfg, k, 1, seed)
		if err != nil {
			return err
		}
		results[i] = GridResult{Config: cfgs[i], Metrics: m}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(results, func(i, j int) bool {
		return results[i].Metrics.MSE < results[j].Metrics.MSE
	})
	return results, nil
}
