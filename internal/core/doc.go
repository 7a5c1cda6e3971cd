// Package core implements the paper's primary contribution (§3.4–§3.5
// support): the multi-target regression model that predicts a serverless
// function's execution time at every memory size from monitoring data
// collected at a single base size.
//
// # Architecture
//
// The package is organized around one type, Model, and the stages of its
// lifecycle:
//
//   - model.go — ModelConfig (base size, prediction grid, feature set,
//     network hyperparameters) and Train, which extracts the feature matrix
//     and ratio targets, fits a standardizing scaler, and trains a small
//     ensemble of networks. The members share the worker pool (bounded by
//     ModelConfig.Workers) in epoch slices through pool.RunSlices: each
//     member is an nn.Session, a resumable epoch loop, and a worker runs
//     ceil(epochs/workers) of its epochs before taking the member with the
//     most epochs left, so three members on two workers finish in 1.5
//     member-times instead of 2. Each member derives its own seed and
//     keeps its own weights, optimizer moments and shuffle stream, so
//     results are identical for any worker count. A finished member is
//     never trained again, so it drops its optimizer moments (twice its
//     weights under Adam) at once. Predict/PredictBatch run
//     the ensemble, clamp the predicted ratios to a physically plausible
//     band, and project the per-size times onto the monotone region (more
//     memory never predicts slower execution). Both run on
//     nn.Network.ForwardBatch with one pooled scratch type: Predict is a
//     one-row batch (bit-identical to the per-row kernel), and
//     PredictBatch chunks the input — one matrix pass per ensemble member
//     per chunk, never more pool workers than chunks. trainmodels.go adds
//     TrainModels, the multi-model fan-out (one model per base size or per
//     provider) over the same pool.
//
//   - evaluate.go — CVMetrics (the Table 3 quality metrics), k-fold
//     CrossValidate, Evaluate for held-out datasets, and the sequential
//     forward-selection evaluator behind the Figure 4 experiment.
//
//   - finetune.go — FineTune, the paper's §5 transfer-learning proposal:
//     clone a trained model, freeze its early layers, and retrain the rest
//     on a small dataset measured on a changed (or different) platform. The
//     clone keeps the source model's feature scaler so inputs stay on the
//     source scale, and records a Provenance describing the adaptation.
//     The public sizeless.Predictor.Adapt wraps this. FineTune shares the
//     nn package's mini-batch GEMM engine with Train — the freeze is
//     applied at the engine level, so frozen layers skip backward compute
//     entirely (not just the weight update), and ensemble members adapt
//     in epoch slices through the same scheduler as Train.
//
//   - serialize.go — JSON persistence of weights, scaler, feature names,
//     grid metadata, and (for adapted models) Provenance, so a saved model
//     file is self-describing.
//
//   - gridsearch.go / pdp.go — the Table 2 hyperparameter search and the
//     Figure 5 partial-dependence analysis.
//
//   - halving.go — GridSearchHalving, the benchgate's search-pair
//     candidate and the subject of the goldenHalving pins; no program
//     calls it. It is the adaptive alternative to the exhaustive sweep:
//     successive halving over the Table-2 grid (train
//     1/4 of each configuration's epoch budget, keep the best half by
//     validation MSE, double the budget, repeat). Survivors train
//     incrementally on the engine's persistent shuffle stream, so the
//     search spends half the exhaustive epochs while the final round
//     scores configurations exactly as continuous full-budget training
//     would — with elimination disabled (KeepAll) it reproduces the
//     exhaustive ranking bit-for-bit.
//
// # Adaptive search
//
// Train, CrossValidate, FineTune, and GridSearchHalving all understand
// validation-split early stopping: ModelConfig.{ValidationFraction,
// Patience} (FineTuneOptions carries the same pair) hold rows out, score
// them after every epoch through the validation hook of nn.Session (the
// loop behind nn.TrainWithValidation), and return the
// best-validation weights rather than the last epoch's. FineTune records
// the epochs actually spent (and whether patience cut the budget) in the
// adapted model's Provenance — on tiny adaptation corpora the fixed
// 100-epoch convention demonstrably overfits, and a patience of ~10
// recovers the held-out accuracy (see the diagonal-overfit regression
// test in the public package).
//
// Everything here is provider-agnostic: the model predicts execution-time
// ratios for whatever memory grid it was trained on, and the caller attaches
// pricing/platform semantics (see internal/platform and the public sizeless
// package).
package core
