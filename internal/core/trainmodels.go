package core

import (
	"context"
	"fmt"

	"sizeless/internal/dataset"
	"sizeless/internal/pool"
)

// TrainJob pairs a dataset with a model configuration for TrainModels.
type TrainJob struct {
	Dataset *dataset.Dataset
	Config  ModelConfig
}

// TrainModels trains many independent models through one bounded worker
// pool — the multi-network workflow behind §4 (one model per base size),
// the transfer matrix (one model per provider), and seed-ensemble
// experiments. Results align positionally with jobs.
//
// The pool owns the parallelism budget: each job's ensemble members train
// one after another inside their worker (call Train directly with
// ModelConfig.Workers to share the workers among one model's members in
// epoch slices instead). Every job is seeded by its own config, so results
// are identical for any worker count.
// Cancelling ctx abandons unstarted jobs and returns the context's error;
// a failed job does not stop the others, and the lowest-indexed error is
// returned.
func TrainModels(ctx context.Context, jobs []TrainJob, workers int) ([]*Model, error) {
	models := make([]*Model, len(jobs))
	err := pool.Run(ctx, len(jobs), workers, func(i int) error {
		cfg := jobs[i].Config
		cfg.Workers = 1
		m, err := Train(ctx, jobs[i].Dataset, cfg)
		if err != nil {
			return fmt.Errorf("core: train job %d: %w", i, err)
		}
		models[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return models, nil
}
