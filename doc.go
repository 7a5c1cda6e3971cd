// Package sizeless is a faithful, self-contained Go implementation of
// "Sizeless: Predicting the Optimal Size of Serverless Functions"
// (Eismann et al., Middleware 2021), generalized from the paper's single
// AWS-Lambda-like platform to a pluggable multi-cloud Provider model.
//
// Sizeless predicts a serverless function's execution time at every memory
// size from resource-consumption monitoring data collected at a *single*
// memory size, then recommends the cost/performance-optimal size. Unlike
// profiling approaches (AWS Lambda Power Tuning, COSE, BATCH), it needs no
// dedicated performance tests: production monitoring of one deployment is
// enough.
//
// The API is built from four ideas:
//
//   - A Provider describes one FaaS platform — memory grid, pricing,
//     resource scaling, cold starts. AWSLambda (the default),
//     GCPCloudFunctions, and AzureFunctions ship built in; custom
//     platforms register a ProviderSpec with RegisterProvider and become
//     selectable by name. Because pricing and CPU-share curves differ per
//     cloud, the same workload can earn a different recommendation on each.
//
//   - Entry points take a context.Context and functional options, so every
//     long-running phase is cancellable and reports progress:
//
//     ds, _ := sizeless.GenerateDataset(ctx,
//     sizeless.WithFunctions(500), sizeless.WithSeed(1),
//     sizeless.WithProvider(sizeless.GCPCloudFunctions()))
//     pred, _ := sizeless.TrainPredictor(ctx, ds,
//     sizeless.WithProvider(sizeless.GCPCloudFunctions()))
//
//     summary, _ := sizeless.MonitorFunction(ctx, spec)
//     rec, _ := pred.Recommend(summary, 0.75)
//
//   - Batch APIs (Predictor.PredictBatch, Predictor.RecommendBatch, and
//     Service.RecommendBatch) amortize feature extraction and run the
//     model's forward passes concurrently — the fleet-scale hot path a
//     provider-side deployment needs.
//
//   - A trained model survives platform changes through adaptation rather
//     than retraining: Predictor.Adapt fine-tunes it on a small corpus
//     measured on the changed (or different) platform — the paper's §5
//     transfer-learning proposal as a first-class workflow (see below).
//
// # The migration workflow
//
// A Sizeless model encodes one platform's resource-scaling behaviour, so a
// provider-side runtime upgrade — or a migration to another cloud —
// silently degrades its predictions. The §5 answer is transfer learning:
// keep the network's early layers (the learned feature structure), retrain
// the rest on a small new-platform corpus. Step by step:
//
//  1. Train on a portable grid. Adaptation reuses the model's prediction
//     targets, so every size the model predicts must be deployable on the
//     target platform. CommonSizes(src, dst) returns the shared grid; pass
//     it to GenerateDataset/TrainPredictor via WithSizes. (For an in-place
//     platform upgrade the grid is unchanged and this step is a no-op.)
//
//  2. Measure a small adaptation corpus on the target: tens of functions
//     instead of the full 2000-function campaign, at the model's own sizes
//     (Predictor.Sizes), e.g. with GenerateDataset(WithProvider(dst),
//     WithSizes(pred.Sizes()...)).
//
//  3. Adapt: adapted, err := pred.Adapt(ctx, smallDS,
//     WithProvider(dst), WithFreezeLayers(k), WithFineTuneEpochs(n)).
//     The result is a new Predictor bound to the target provider, with the
//     source feature scaler preserved and a Provenance stamp (source,
//     target, freeze/epoch settings) that persists through Save/Load.
//
//  4. Verify: Predictor.Evaluate on a held-out target dataset quantifies
//     what the change cost and what adaptation recovered; the
//     "transfer-matrix" experiment in cmd/benchreport runs this comparison
//     for every built-in provider pair.
//
// The same workflow is scriptable without Go code: "sizeless adapt" in
// cmd/sizeless turns a saved model file plus a target-platform CSV into an
// adapted model file. examples/cross-cloud-migration walks an AWS-trained
// model through GCP adaptation end to end.
//
// # The concurrency model
//
// The continuous recommender (Predictor.NewService) is built for
// fleet-scale concurrent ingestion. Per-function tracking state is
// partitioned across WithShards independently locked shards (default 32,
// FNV-1a hash of the function ID), and Service.IngestBatch fans a batch of
// monitoring windows out over a WithWorkers pool, so drift detection and
// recomputation run in parallel across functions. Every exported Service
// method is safe to call concurrently with every other.
//
// Ingestion commits atomically per function: on any error — including
// context cancellation observed before a triggered recomputation — the
// function keeps exactly its prior state, never a half-ingested window.
// Cancelling IngestBatch's context is the backpressure mechanism: workers
// stop picking up new functions and the call returns what was committed.
// Ingest and IngestBatch take ownership of the invocation slices they are
// handed (the hot path adopts them without copying); callers must not
// modify them afterwards.
//
// The prediction hot paths (Predict, PredictBatch, RecommendBatch, and the
// service's recompute) share a pooled feature-extraction and forward-pass
// layer (sync.Pool-backed matrices and scratch), so batch prediction does
// not allocate a fresh matrix per call. They share one forward pass too: a
// single prediction is a one-row batch. Single rows and the last n%4 rows
// of a batch take the single-row kernel and are bit-identical to Predict;
// only rows inside four-row blocks reassociate (a few ULPs). Each tracked
// function also caches its baseline window's sorted ranks, so a
// stationary fleet's repeated drift sweeps stop re-sorting the unchanged
// baseline. BENCH_ingest.json records the measured fleet-ingest
// throughput of this engine against the seed's sequential pipeline; its
// description carries the go test -bench command that regenerates it.
//
// The deployment posture for all of this is the fleet daemon: "sizeless
// serve" (internal/serve) exposes ingest/recommend/fleet/status over
// HTTP with per-shard bounded admission queues (429 + Retry-After on
// saturation, never unbounded buffering), CRC-guarded fleet snapshots
// that restore byte-identically across restarts, and an optional
// drift-quorum adaptation loop that re-fits and hot-swaps the model via
// Predictor.SwapServiceModel when a fleet-wide workload shift is
// detected.
//
// # The training engine
//
// Every model this package produces — TrainPredictor, Predictor.Adapt,
// and the grid-search/cross-validation experiments behind them — is fitted
// by one flat-weight, mini-batch GEMM engine (internal/nn): layer weights
// live in contiguous row-major arrays, a whole mini-batch moves through
// the network as a (batch × dim) matrix per layer, and all training
// scratch is pooled so the steady-state epoch loop performs zero
// allocations. Independent units of training work (ensemble members,
// grid-search configurations, CV folds) fan out over a bounded worker
// pool honoring WithWorkers and context cancellation; every unit derives
// its own random stream, so a fixed WithSeed reproduces the same model
// for any worker count. Frozen layers (Predictor.Adapt) skip backward
// compute entirely. BENCH_train.json records the engine's ns/epoch and
// allocs/epoch against the retired per-sample loop; its description
// carries the go test -bench command that regenerates it.
//
// The kernel layer underneath is bit-reproducible: scalar kernels with
// frozen summation orders, byte-identical serialization, and a 1e-6
// parity oracle against the retired loop, so a fixed WithSeed yields the
// same model bytes on every platform. See internal/nn's package
// documentation for the full determinism policy.
//
// # Adaptive search
//
// Epoch budgets are adaptive, not fixed. WithEarlyStopping(patience) (on
// TrainPredictor and Predictor.Adapt, with WithValidationSplit sizing the
// held-out fraction) scores a validation split after every epoch, stops
// once it stagnates for `patience` epochs, and returns the
// best-validation weights seen — on the small corpora Adapt is designed
// for, the fixed-budget alternative demonstrably overfits, and the
// adapted model's Provenance records how many epochs were actually
// spent. Model selection itself (benchreport's Table-2 experiment) runs
// the exhaustive core.GridSearch. core.GridSearchHalving, successive
// halving over the same grid (train 1/4 of the budget, keep the best half
// by validation MSE, double, repeat), is the candidate of the benchgate's
// search pair and the subject of the goldenHalving pins: it spends half
// the epochs of the exhaustive sweep for a winner within tolerance of the
// exhaustive one, and no program calls it. BENCH_search.json records that
// trajectory; its description carries the go test -bench command that
// regenerates it.
//
// # Static analysis
//
// The invariants these engines rest on — bounded fan-out, pooled scratch
// that never escapes its function, seed-reproducible randomness, context
// propagation, and the recommender's shard-lock discipline — are
// machine-enforced by an in-repo analyzer suite (internal/analysis, run
// by cmd/sizelessvet). One whole-program test beside it, deadexport,
// requires every exported function, method and constant under internal/
// to have a caller outside tests. Deliberate exceptions are suppressed in
// source with "//lint:ignore <analyzer> <reason>", so every exception is
// grepable and carries its justification. CI runs the suite on every
// push.
//
// Everything underneath — the platform simulators, the Node.js-like
// runtime with the 25 Table-1 metrics, the managed-service simulators, the
// load generator, the measurement harness, the neural network, and the
// baselines — lives in internal/ packages and is exercised through this
// API, the example programs under examples/, and the benchmark harness
// that regenerates every table and figure of the paper (cmd/benchreport).
package sizeless
