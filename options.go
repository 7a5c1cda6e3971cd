package sizeless

import (
	"fmt"
	"time"

	"sizeless/internal/platform"
)

// Option configures a pipeline entry point (GenerateDataset,
// TrainPredictor, MonitorFunction, LoadPredictor, Predictor.NewService).
// Options not meaningful for a given entry point are accepted and ignored,
// so one option slice can parameterize a whole pipeline.
type Option func(*config) error

// config is the resolved option set. Zero values mean "use the entry
// point's default".
type config struct {
	provider    Provider
	hasProvider bool
	seed        int64
	sizes       []MemorySize
	workers     int
	functions   int
	rate        float64
	duration    time.Duration
	memory      MemorySize
	base        MemorySize
	hidden      []int
	epochs      int
	ensemble    int
	tradeoff    *float64
	freeze      int
	hasFreeze   bool
	ftEpochs    int
	patience    int
	valFrac     float64
	minWindow   int
	shards      int
	progress    func(done, total int)
}

// resolve applies opts over the defaults shared by every entry point.
func resolve(opts []Option) (config, error) {
	cfg := config{provider: platform.AWSLambda()}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&cfg); err != nil {
			return config{}, fmt.Errorf("sizeless: %w", err)
		}
	}
	return cfg, nil
}

// predictionSizes returns the memory grid predictions run over: an
// explicit WithSizes wins, otherwise the provider's default grid.
func (c config) predictionSizes() []MemorySize {
	if c.sizes != nil {
		return append([]MemorySize(nil), c.sizes...)
	}
	return c.provider.DefaultSizes()
}

// WithProvider selects the FaaS platform the pipeline targets: its memory
// grid, resource-scaling behaviour, pricing, and cold-start model. The
// default is AWSLambda(). Use ProviderByName to resolve registered
// providers from CLI flags.
func WithProvider(p Provider) Option {
	return func(c *config) error {
		if p == nil {
			return fmt.Errorf("WithProvider: nil provider")
		}
		c.provider = p
		c.hasProvider = true
		return nil
	}
}

// WithSeed anchors all randomness; identical seeds reproduce results
// bit-for-bit regardless of worker count.
func WithSeed(seed int64) Option {
	return func(c *config) error {
		c.seed = seed
		return nil
	}
}

// WithSizes overrides the memory grid measured and predicted (default: the
// provider's DefaultSizes). Every size must be deployable on the
// provider's grid.
func WithSizes(sizes ...MemorySize) Option {
	return func(c *config) error {
		if len(sizes) == 0 {
			return fmt.Errorf("WithSizes: empty size list")
		}
		c.sizes = append([]MemorySize(nil), sizes...)
		return nil
	}
}

// WithWorkers bounds parallelism across the pipeline: measurement
// campaigns, model training (the ensemble members of TrainPredictor and
// Predictor.Adapt share the workers in epoch slices, so no worker idles
// while a member has epochs left), and batch prediction (0 = GOMAXPROCS).
// Results never depend on the worker count: every parallel unit derives
// its own random stream, and each member trains the same epochs in the
// same order.
func WithWorkers(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("WithWorkers: negative worker count %d", n)
		}
		c.workers = n
		return nil
	}
}

// WithFunctions sets the number of synthetic functions GenerateDataset
// measures (paper: 2000).
func WithFunctions(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("WithFunctions: non-positive count %d", n)
		}
		c.functions = n
		return nil
	}
}

// WithRate sets the load-generator request rate in req/s (paper: 30).
func WithRate(rps float64) Option {
	return func(c *config) error {
		if rps <= 0 {
			return fmt.Errorf("WithRate: non-positive rate %v", rps)
		}
		c.rate = rps
		return nil
	}
}

// WithDuration sets the per-experiment measurement window (paper: 10 min).
func WithDuration(d time.Duration) Option {
	return func(c *config) error {
		if d <= 0 {
			return fmt.Errorf("WithDuration: non-positive duration %v", d)
		}
		c.duration = d
		return nil
	}
}

// WithMemory sets the deployed memory size MonitorFunction observes at
// (default: the size closest to 256 MB on the provider's grid).
func WithMemory(m MemorySize) Option {
	return func(c *config) error {
		if m <= 0 {
			return fmt.Errorf("WithMemory: non-positive size %v", m)
		}
		c.memory = m
		return nil
	}
}

// WithBase sets the monitored base size TrainPredictor fits against (the
// paper recommends 256 MB, the default).
func WithBase(m MemorySize) Option {
	return func(c *config) error {
		if m <= 0 {
			return fmt.Errorf("WithBase: non-positive size %v", m)
		}
		c.base = m
		return nil
	}
}

// WithHidden overrides the network's hidden-layer widths (paper final:
// 4×256) — useful for quick experiments.
func WithHidden(widths ...int) Option {
	return func(c *config) error {
		if len(widths) == 0 {
			return fmt.Errorf("WithHidden: empty layer list")
		}
		c.hidden = append([]int(nil), widths...)
		return nil
	}
}

// WithEpochs overrides the training epochs (paper final: 200).
func WithEpochs(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("WithEpochs: non-positive epochs %d", n)
		}
		c.epochs = n
		return nil
	}
}

// WithEnsembleSize sets how many networks train from different seeds and
// average their predictions (default 3).
func WithEnsembleSize(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("WithEnsembleSize: non-positive size %d", n)
		}
		c.ensemble = n
		return nil
	}
}

// WithFreezeLayers sets how many initial network layers Predictor.Adapt
// keeps frozen while the rest retrain on the adaptation dataset. The
// default is half the network (rounded down), the usual transfer-learning
// split; 0 freezes nothing (full warm-start retraining). Freezing every
// layer is rejected by Adapt — nothing would adapt.
func WithFreezeLayers(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("WithFreezeLayers: negative layer count %d", n)
		}
		c.freeze = n
		c.hasFreeze = true
		return nil
	}
}

// WithFineTuneEpochs sets Predictor.Adapt's retraining budget (default
// 100). The adaptation dataset is small, so this is cheap compared to
// training from scratch.
func WithFineTuneEpochs(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("WithFineTuneEpochs: non-positive epochs %d", n)
		}
		c.ftEpochs = n
		return nil
	}
}

// WithEarlyStopping enables validation-based early stopping in
// TrainPredictor and Predictor.Adapt: a held-out validation split is
// scored after every training epoch, and training stops once the score
// has not improved for `patience` consecutive epochs. The resulting model
// keeps the best-validation weights seen, not the last epoch's — on small
// adaptation datasets this is the difference between adapting and
// overfitting. The split size comes from WithValidationSplit (default 20%
// of the rows in TrainPredictor, 25% in Adapt).
func WithEarlyStopping(patience int) Option {
	return func(c *config) error {
		if patience <= 0 {
			return fmt.Errorf("WithEarlyStopping: non-positive patience %d", patience)
		}
		c.patience = patience
		return nil
	}
}

// WithValidationSplit sets the fraction of rows held out as the per-epoch
// validation split behind WithEarlyStopping. It can also be used alone:
// training then runs the full epoch budget but still returns the
// best-validation weights.
func WithValidationSplit(frac float64) Option {
	return func(c *config) error {
		if frac <= 0 || frac >= 1 {
			return fmt.Errorf("WithValidationSplit: fraction %v outside (0, 1)", frac)
		}
		c.valFrac = frac
		return nil
	}
}

// WithTradeoff sets the §3.5 cost/performance tradeoff t in [0,1] for the
// recommendation service (default 0.75, the paper's recommended setting).
func WithTradeoff(t float64) Option {
	return func(c *config) error {
		if !(t >= 0 && t <= 1) { // also rejects NaN
			return fmt.Errorf("WithTradeoff: %v outside [0,1]", t)
		}
		c.tradeoff = &t
		return nil
	}
}

// WithMinWindow sets the minimum invocations before the recommendation
// service issues its first recommendation (default 100). NewService
// rejects a window below the drift detector's 20-sample minimum.
func WithMinWindow(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("WithMinWindow: non-positive window %d", n)
		}
		c.minWindow = n
		return nil
	}
}

// WithShards sets how many independently locked shards the recommendation
// service partitions per-function state across (default 32). Ingestion for
// functions on different shards proceeds fully in parallel; one shard
// restores a single global lock. Shard assignment hashes the function ID,
// so it is deterministic across processes.
func WithShards(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("WithShards: non-positive shard count %d", n)
		}
		c.shards = n
		return nil
	}
}

// WithProgress installs a progress callback for measurement campaigns:
// after every completed (function × size) experiment it receives the
// finished and total cell counts. Calls are serialized.
func WithProgress(fn func(done, total int)) Option {
	return func(c *config) error {
		c.progress = fn
		return nil
	}
}
