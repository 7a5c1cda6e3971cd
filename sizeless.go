package sizeless

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"

	"sizeless/internal/core"
	"sizeless/internal/dataset"
	"sizeless/internal/fngen"
	"sizeless/internal/harness"
	"sizeless/internal/monitoring"
	"sizeless/internal/optimizer"
	"sizeless/internal/platform"
	"sizeless/internal/recommender"
	"sizeless/internal/runtime"
	"sizeless/internal/workload"
	"sizeless/internal/xrand"
)

// MemorySize is a function memory configuration in MB.
type MemorySize = platform.MemorySize

// The paper's six standard memory sizes (the AWS grid).
const (
	Mem128  = platform.Mem128
	Mem256  = platform.Mem256
	Mem512  = platform.Mem512
	Mem1024 = platform.Mem1024
	Mem2048 = platform.Mem2048
	Mem3008 = platform.Mem3008
)

// StandardSizes returns the six paper sizes in ascending order.
func StandardSizes() []MemorySize { return platform.StandardSizes() }

// Summary is the per-function monitoring aggregate (mean/std/CoV of the 25
// Table-1 metrics) collected at one memory size.
type Summary = monitoring.Summary

// Invocation is one monitored execution (metric vector plus bookkeeping) —
// the unit Service.Ingest and Service.IngestBatch consume. The service
// takes ownership of ingested slices; callers must not modify them after a
// call.
type Invocation = monitoring.Invocation

// Dataset is the training dataset: functions × memory sizes × summaries.
type Dataset = dataset.Dataset

// GenerateDataset runs the offline measurement campaign (§3.1–3.3): it
// generates unique synthetic functions from the sixteen-segment catalog,
// deploys each at every memory size on the selected provider's simulated
// platform, drives them with Poisson load, and aggregates the monitored
// metrics. WithFunctions is required; WithProvider, WithSizes, WithSeed,
// WithRate, WithDuration, WithWorkers, and WithProgress tune the campaign.
// Cancelling ctx stops the campaign at the next experiment boundary.
func GenerateDataset(ctx context.Context, opts ...Option) (*Dataset, error) {
	cfg, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	if cfg.functions <= 0 {
		return nil, errors.New("sizeless: GenerateDataset requires WithFunctions(n > 0)")
	}
	gen := fngen.New(xrand.New(cfg.seed), fngen.Options{})
	fns, err := gen.Generate(cfg.functions)
	if err != nil {
		return nil, fmt.Errorf("sizeless: %w", err)
	}
	specs := make([]*workload.Spec, len(fns))
	for i, fn := range fns {
		specs[i] = fn.Spec
	}
	ds, err := harness.BuildDataset(ctx, harness.Options{
		Env:      cfg.newEnv(),
		Rate:     cfg.rate,
		Duration: cfg.duration,
		Sizes:    cfg.predictionSizes(),
		Seed:     cfg.seed,
		Workers:  cfg.workers,
		Progress: cfg.progress,
	}, specs)
	if err != nil {
		return nil, fmt.Errorf("sizeless: %w", err)
	}
	return ds, nil
}

// ReadDatasetCSV loads a dataset previously saved with Dataset.WriteCSV.
func ReadDatasetCSV(r io.Reader) (*Dataset, error) {
	return dataset.ReadCSV(r)
}

// Predictor predicts execution times for all memory sizes from a single
// monitored size and recommends the provider-optimal size.
type Predictor struct {
	model    *core.Model
	provider Provider
	workers  int
}

// baseFor picks the monitored base size: an explicit WithBase wins,
// otherwise the size closest to the paper-recommended 256 MB among the
// dataset's sizes.
func baseFor(cfg config, sizes []MemorySize) MemorySize {
	if cfg.base != 0 {
		return cfg.base
	}
	for _, m := range sizes {
		if m == Mem256 {
			return Mem256
		}
	}
	if n := platform.Nearest(Mem256, sizes); n != 0 {
		return n
	}
	return Mem256
}

// TrainPredictor fits the multi-target regression model (§3.4) on a
// dataset. WithProvider attaches the pricing/grid used by Recommend;
// WithBase, WithHidden, WithEpochs, WithEnsembleSize, and WithSeed tune
// the model; WithEarlyStopping and WithValidationSplit stop each ensemble
// member once a held-out split stagnates and keep its best-validation
// weights. Cancelling ctx aborts training at the next epoch boundary.
func TrainPredictor(ctx context.Context, ds *Dataset, opts ...Option) (*Predictor, error) {
	cfg, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	mc := core.DefaultModelConfig(baseFor(cfg, ds.Sizes))
	mc.Sizes = ds.Sizes
	if cfg.hidden != nil {
		mc.Hidden = cfg.hidden
	}
	if cfg.epochs > 0 {
		mc.Epochs = cfg.epochs
	}
	if cfg.ensemble > 0 {
		mc.EnsembleSize = cfg.ensemble
	}
	if cfg.seed != 0 {
		mc.Seed = cfg.seed
	}
	mc.Workers = cfg.workers
	mc.Patience = cfg.patience
	mc.ValidationFraction = cfg.valFrac
	model, err := core.Train(ctx, ds, mc)
	if err != nil {
		return nil, fmt.Errorf("sizeless: %w", err)
	}
	return &Predictor{model: model, provider: cfg.provider, workers: cfg.workers}, nil
}

// LoadPredictor restores a predictor saved with Save. The provider is not
// serialized; pass WithProvider to re-attach a non-default one.
func LoadPredictor(r io.Reader, opts ...Option) (*Predictor, error) {
	cfg, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	model, err := core.LoadModel(r)
	if err != nil {
		return nil, fmt.Errorf("sizeless: %w", err)
	}
	return &Predictor{model: model, provider: cfg.provider, workers: cfg.workers}, nil
}

// Save persists the predictor (weights + scaler + feature names) as JSON.
func (p *Predictor) Save(w io.Writer) error {
	if err := p.model.Save(w); err != nil {
		return fmt.Errorf("sizeless: %w", err)
	}
	return nil
}

// Base returns the memory size the predictor expects monitoring data from.
func (p *Predictor) Base() MemorySize { return p.model.Config().Base }

// Sizes returns the memory grid the predictor was trained to predict, in
// ascending order. Adaptation datasets must be measured at exactly these
// sizes (see Adapt).
func (p *Predictor) Sizes() []MemorySize {
	sizes := append([]MemorySize(nil), p.model.Config().Sizes...)
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	return sizes
}

// Provenance describes how an adapted model came to be: the source and
// target platforms and the transfer-learning settings. It is persisted
// inside saved model files, so an adapted model is self-describing.
type Provenance = core.Provenance

// Provenance reports the predictor's adaptation lineage. The zero value
// means the model was trained from scratch; Adapt stamps the source and
// target provider names and the fine-tuning settings.
func (p *Predictor) Provenance() Provenance { return p.model.Provenance() }

// Adapt is the paper's §5 transfer-learning workflow as a first-class
// operation: instead of regenerating the full training corpus after a
// platform change — a provider-side runtime upgrade, or a migration to a
// different cloud — it fine-tunes the trained model on a small dataset
// measured on the new platform and returns a new Predictor bound to the
// target provider. The receiver is left untouched.
//
// The target provider comes from WithProvider (default: keep the source
// provider, which models an in-place platform upgrade). WithFreezeLayers
// picks the freeze/retrain split (default: half the network) and
// WithFineTuneEpochs the retraining budget (default 100). The source
// model's feature scaler is preserved so monitoring summaries stay on the
// scale the network was trained against. Adaptation datasets are small, so
// a fixed budget routinely overfits — WithEarlyStopping(patience) holds a
// WithValidationSplit fraction of the rows out (default 25%), stops once
// validation stagnates, and keeps the best-validation weights; the
// returned Provenance records the epochs actually spent.
//
// ds must cover the predictor's base size and every size in Sizes(), so a
// cross-cloud migration needs the model trained on a grid deployable on
// both clouds — see CommonSizes and examples/cross-cloud-migration.
// Cancelling ctx aborts adaptation at the next epoch boundary.
func (p *Predictor) Adapt(ctx context.Context, ds *Dataset, opts ...Option) (*Predictor, error) {
	cfg, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	provider := p.provider
	if cfg.hasProvider {
		provider = cfg.provider
	}
	fo := core.FineTuneOptions{
		Epochs:             cfg.ftEpochs,
		Patience:           cfg.patience,
		ValidationFraction: cfg.valFrac,
		Seed:               cfg.seed,
		Source:             p.provider.Name(),
		Target:             provider.Name(),
		Workers:            cfg.workers,
	}
	if cfg.hasFreeze {
		fo.FreezeLayers = cfg.freeze
		if cfg.freeze == 0 {
			fo.FreezeLayers = -1 // explicit "freeze nothing"
		}
	}
	model, err := core.FineTune(ctx, p.model, ds, fo)
	if err != nil {
		return nil, fmt.Errorf("sizeless: adapt: %w", err)
	}
	workers := p.workers
	if cfg.workers > 0 {
		workers = cfg.workers
	}
	return &Predictor{model: model, provider: provider, workers: workers}, nil
}

// Metrics bundles the regression-quality numbers of paper Table 3 (MSE,
// MAPE, R², explained variance) over ratio predictions.
type Metrics = core.CVMetrics

// Evaluate scores the predictor's ratio predictions against a held-out
// dataset measured at the predictor's base and target sizes — the quickest
// way to quantify how much accuracy a platform change cost, and whether an
// Adapt recovered it.
func (p *Predictor) Evaluate(ds *Dataset) (Metrics, error) {
	m, err := core.Evaluate(p.model, ds)
	if err != nil {
		return Metrics{}, fmt.Errorf("sizeless: %w", err)
	}
	return m, nil
}

// Provider returns the platform the predictor recommends for.
func (p *Predictor) Provider() Provider { return p.provider }

// pricing returns the provider's billing scheme.
func (p *Predictor) pricing() platform.Pricer { return p.provider.Platform().Pricing }

// Predict returns the expected mean execution time (ms) for every memory
// size, given a monitoring summary collected at the predictor's base size.
func (p *Predictor) Predict(s Summary) (map[MemorySize]float64, error) {
	out, err := p.model.Predict(s)
	if err != nil {
		return nil, fmt.Errorf("sizeless: %w", err)
	}
	return out, nil
}

// PredictBatch predicts execution times for many summaries in one pass —
// the fleet-scale hot path. Feature extraction and scaling are amortized
// into single matrix operations and the forward passes run concurrently
// (bounded by WithWorkers at training/load time). Results align
// positionally with sums and match calling Predict per summary: bit for
// bit outside the kernels' four-row blocks, within a few ULPs inside them.
func (p *Predictor) PredictBatch(ctx context.Context, sums []Summary) ([]map[MemorySize]float64, error) {
	out, err := p.model.PredictBatch(ctx, sums, p.workers)
	if err != nil {
		return nil, fmt.Errorf("sizeless: %w", err)
	}
	return out, nil
}

// Recommendation is the optimizer's output for one function.
type Recommendation = optimizer.Recommendation

// Recommend predicts all sizes and returns the §3.5 recommendation under
// the predictor's provider pricing, for tradeoff t in [0,1]: t = 0.75
// prioritizes cost (the paper's recommended setting), t = 0.25 prioritizes
// performance.
func (p *Predictor) Recommend(s Summary, tradeoff float64) (Recommendation, error) {
	times, err := p.Predict(s)
	if err != nil {
		return Recommendation{}, err
	}
	rec, err := optimizer.Optimize(times, p.pricing(), tradeoff)
	if err != nil {
		return Recommendation{}, fmt.Errorf("sizeless: %w", err)
	}
	return rec, nil
}

// RecommendBatch scores many summaries in one pass: batch prediction plus
// per-summary optimization under the provider's pricing. Results align
// positionally with sums.
func (p *Predictor) RecommendBatch(ctx context.Context, sums []Summary, tradeoff float64) ([]Recommendation, error) {
	times, err := p.PredictBatch(ctx, sums)
	if err != nil {
		return nil, err
	}
	out := make([]Recommendation, len(times))
	for i, t := range times {
		rec, err := optimizer.Optimize(t, p.pricing(), tradeoff)
		if err != nil {
			return nil, fmt.Errorf("sizeless: summary %d: %w", i, err)
		}
		out[i] = rec
	}
	return out, nil
}

// MonitorFunction runs a workload spec on the provider's simulated
// platform at one memory size (WithMemory; default the size closest to
// 256 MB on the provider's grid) and returns its monitoring summary — the
// stand-in for reading production monitoring data off a real deployment.
// WithRate, WithDuration, and WithSeed define the observation window.
func MonitorFunction(ctx context.Context, spec *workload.Spec, opts ...Option) (Summary, error) {
	cfg, err := resolve(opts)
	if err != nil {
		return Summary{}, err
	}
	if err := ctx.Err(); err != nil {
		return Summary{}, fmt.Errorf("sizeless: %w", err)
	}
	mem := cfg.memory
	if mem == 0 {
		mem = cfg.provider.Grid().Nearest(Mem256)
		if mem == 0 {
			mem = Mem256
		}
	}
	sum, _, err := harness.Measure(harness.Options{
		Env:      cfg.newEnv(),
		Rate:     cfg.rate,
		Duration: cfg.duration,
		Seed:     cfg.seed,
	}, spec, mem, 0)
	if err != nil {
		return Summary{}, fmt.Errorf("sizeless: %w", err)
	}
	return sum, nil
}

// NewEnv returns a fresh simulated platform environment for the default
// (AWS-Lambda-like) provider, exposed for advanced scenarios (custom
// drift, service latency overrides). NewEnvFor builds one for any
// provider.
func NewEnv() *runtime.Env { return runtime.NewEnv() }

// NewEnvFor returns a fresh simulated environment running the given
// provider's platform. Pass it through WithEnv after customizing.
func NewEnvFor(p Provider) *runtime.Env { return runtime.NewEnvFor(p.Platform()) }

// Service is a continuously running, drift-aware recommender that tracks a
// fleet of functions — the provider-side deployment the paper's
// introduction motivates.
type Service = recommender.Service

// NewService wraps the predictor in a continuous recommendation service:
// ingest monitoring windows per function; recommendations refresh only
// when the workload's resource profile drifts (paper §5). WithTradeoff,
// WithMinWindow, WithDrift, WithWorkers, and WithShards tune it; pricing
// follows the predictor's provider.
//
// The service is safe for concurrent use at fleet scale: per-function
// state is partitioned across WithShards independently locked shards
// (default 32), Service.IngestBatch fans functions out over a WithWorkers
// pool, and cancelling its context applies backpressure — no new functions
// are picked up, and a function whose recomputation was cut off keeps its
// previous state rather than a half-ingested window.
func (p *Predictor) NewService(opts ...Option) (*Service, error) {
	cfg, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	pricing := p.pricing()
	if cfg.hasProvider {
		pricing = cfg.provider.Platform().Pricing
	}
	rc := recommender.Config{
		Tradeoff:  cfg.tradeoff,
		MinWindow: cfg.minWindow,
		Pricing:   pricing,
		Workers:   cfg.workers,
		Shards:    cfg.shards,
	}
	if cfg.hasDrift {
		rc.Drift = cfg.drift
	}
	svc, err := recommender.New(p.model, rc)
	if err != nil {
		return nil, fmt.Errorf("sizeless: %w", err)
	}
	return svc, nil
}

// SwapServiceModel atomically puts this predictor's model behind an already
// running Service — the last step of the §5 loop when it runs unattended:
// drift fires fleet-wide, Adapt produces a fine-tuned predictor, and the
// adapted model goes live without restarting the service or losing any
// per-function baseline. Tracked functions pick the new model up at their
// next recomputation.
//
// The swap is rejected unless the adapted model keeps the service's base
// size and memory grid (which Adapt preserves by construction).
func (p *Predictor) SwapServiceModel(svc *Service) error {
	if svc == nil {
		return fmt.Errorf("sizeless: swap: nil service")
	}
	if err := svc.SwapModel(p.model); err != nil {
		return fmt.Errorf("sizeless: %w", err)
	}
	return nil
}

// Fingerprint returns a stable hex hash of the predictor's serialized model
// state. Two predictors fingerprint equal exactly when Save would write
// identical bytes — the identity the serve daemon stamps into fleet
// snapshots.
func (p *Predictor) Fingerprint() (string, error) {
	fp, err := p.model.Fingerprint()
	if err != nil {
		return "", fmt.Errorf("sizeless: %w", err)
	}
	return fp, nil
}
