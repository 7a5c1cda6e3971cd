package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sizeless/internal/apps"
	"sizeless/internal/core"
	"sizeless/internal/dataset"
	"sizeless/internal/fngen"
	"sizeless/internal/harness"
	"sizeless/internal/platform"
	"sizeless/internal/runtime"
	"sizeless/internal/xrand"
)

// Scale controls experiment cost. The paper's numbers are FullScale; tests
// and benchmarks use reduced settings that preserve the shapes.
type Scale struct {
	// Name labels the scale in reports.
	Name string
	// TrainFunctions is the synthetic-dataset population (paper: 2000).
	TrainFunctions int
	// Rate/Duration drive dataset-generation experiments (paper: 30 rps,
	// 10 min).
	Rate     float64
	Duration time.Duration
	// CaseRate/CaseDuration drive case-study measurements.
	CaseRate     float64
	CaseDuration time.Duration
	// Repetitions for case-study measurements (paper: 10).
	Repetitions int
	// Model hyperparameters (paper: 4×256, 200 epochs).
	Hidden []int
	Epochs int
	// StabilityFunctions and StabilityDuration configure Fig. 3 (paper:
	// 50 functions, 15 min).
	StabilityFunctions int
	StabilityDuration  time.Duration
	// Seed anchors all randomness.
	Seed int64
	// Workers bounds harness parallelism (0 = GOMAXPROCS).
	Workers int
}

// SmallScale is sized for unit tests: seconds, not minutes.
func SmallScale() Scale {
	return Scale{
		Name:               "small",
		TrainFunctions:     220,
		Rate:               10,
		Duration:           6 * time.Second,
		CaseRate:           15,
		CaseDuration:       10 * time.Second,
		Repetitions:        3,
		Hidden:             []int{48, 48},
		Epochs:             300,
		StabilityFunctions: 8,
		StabilityDuration:  30 * time.Second,
		Seed:               1,
	}
}

// MediumScale is the default for cmd/benchreport: minutes of CPU.
func MediumScale() Scale {
	return Scale{
		Name:               "medium",
		TrainFunctions:     640,
		Rate:               20,
		Duration:           20 * time.Second,
		CaseRate:           20,
		CaseDuration:       20 * time.Second,
		Repetitions:        3,
		Hidden:             []int{128, 128, 128},
		Epochs:             300,
		StabilityFunctions: 20,
		StabilityDuration:  2 * time.Minute,
		Seed:               1,
	}
}

// FullScale reproduces the paper's campaign sizes. This is hours of CPU.
func FullScale() Scale {
	return Scale{
		Name:               "full",
		TrainFunctions:     2000,
		Rate:               30,
		Duration:           10 * time.Minute,
		CaseRate:           10,
		CaseDuration:       10 * time.Minute,
		Repetitions:        10,
		Hidden:             []int{256, 256, 256, 256},
		Epochs:             200,
		StabilityFunctions: 50,
		StabilityDuration:  15 * time.Minute,
		Seed:               1,
	}
}

// ScaleByName resolves "small", "medium", or "full".
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "small":
		return SmallScale(), nil
	case "medium":
		return MediumScale(), nil
	case "full":
		return FullScale(), nil
	default:
		return Scale{}, fmt.Errorf("experiments: unknown scale %q", name)
	}
}

// CaseStudy is one measured application.
type CaseStudy struct {
	App apps.App
	// Rows holds each function's averaged summaries at every size of the
	// lab's grid, aligned with App.Functions.
	Rows []dataset.Row
}

// Lab owns the shared experiment state.
type Lab struct {
	Scale Scale

	provider platform.Provider

	mu          sync.Mutex
	ds          *dataset.Dataset
	models      map[platform.MemorySize]*core.Model
	caseStudies []*CaseStudy
}

// NewLab returns a lab at the given scale on the default (AWS-Lambda-like)
// provider, reproducing the paper's platform.
func NewLab(scale Scale) *Lab {
	return NewLabFor(scale, platform.AWSLambda())
}

// NewLabFor returns a lab whose measurements, pricing, and memory grid all
// follow the given provider — the hook behind benchreport's -provider
// flag.
func NewLabFor(scale Scale, p platform.Provider) *Lab {
	return &Lab{Scale: scale, provider: p, models: make(map[platform.MemorySize]*core.Model)}
}

// Provider returns the platform the lab experiments run on.
func (l *Lab) Provider() platform.Provider { return l.provider }

// Pricing returns the provider's billing scheme.
func (l *Lab) Pricing() platform.Pricer { return l.provider.Platform().Pricing }

// Sizes returns the provider's prediction grid (the paper's six sizes on
// AWS).
func (l *Lab) Sizes() []platform.MemorySize { return l.provider.DefaultSizes() }

// newEnv builds a fresh simulation environment on the lab's provider.
func (l *Lab) newEnv() *runtime.Env {
	return runtime.NewEnvFor(l.provider.Platform())
}

// harnessOpts builds the dataset-generation harness options.
func (l *Lab) harnessOpts() harness.Options {
	return harness.Options{
		Env:      l.newEnv(),
		Rate:     l.Scale.Rate,
		Duration: l.Scale.Duration,
		Sizes:    l.Sizes(),
		Seed:     l.Scale.Seed,
		Workers:  l.Scale.Workers,
	}
}

// Dataset lazily generates and measures the synthetic training dataset.
// Cancelling ctx aborts a first-time measurement campaign; a cached dataset
// is returned regardless.
func (l *Lab) Dataset(ctx context.Context) (*dataset.Dataset, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ds != nil {
		return l.ds, nil
	}
	specs, err := fngen.New(xrand.New(l.Scale.Seed+1000), fngen.Options{}).Generate(l.Scale.TrainFunctions)
	if err != nil {
		return nil, fmt.Errorf("experiments: generating functions: %w", err)
	}
	ds, err := harness.BuildDataset(ctx, l.harnessOpts(), specs)
	if err != nil {
		return nil, fmt.Errorf("experiments: building dataset: %w", err)
	}
	l.ds = ds
	return ds, nil
}

// SetDataset injects a pre-built dataset (e.g. loaded from CSV).
func (l *Lab) SetDataset(ds *dataset.Dataset) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ds = ds
	l.models = make(map[platform.MemorySize]*core.Model)
}

// modelConfig returns the lab's model configuration for a base size.
func (l *Lab) modelConfig(base platform.MemorySize) core.ModelConfig {
	cfg := core.DefaultModelConfig(base)
	cfg.Sizes = l.Sizes()
	cfg.Hidden = l.Scale.Hidden
	cfg.Epochs = l.Scale.Epochs
	cfg.Seed = l.Scale.Seed
	return cfg
}

// Model lazily trains (and caches) the predictor for a base size.
func (l *Lab) Model(ctx context.Context, base platform.MemorySize) (*core.Model, error) {
	ds, err := l.Dataset(ctx)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if m, ok := l.models[base]; ok {
		return m, nil
	}
	m, err := core.Train(ctx, ds, l.modelConfig(base))
	if err != nil {
		return nil, fmt.Errorf("experiments: training base %v: %w", base, err)
	}
	l.models[base] = m
	return m, nil
}

// Models trains (and caches) the predictors for several base sizes in one
// shot through the shared training pool — the §4 multi-network workflow.
// Cached bases are skipped; results align with bases.
func (l *Lab) Models(ctx context.Context, bases ...platform.MemorySize) ([]*core.Model, error) {
	ds, err := l.Dataset(ctx)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var jobs []core.TrainJob
	var missing []platform.MemorySize
	for _, base := range bases {
		if _, ok := l.models[base]; !ok {
			jobs = append(jobs, core.TrainJob{Dataset: ds, Config: l.modelConfig(base)})
			missing = append(missing, base)
		}
	}
	if len(jobs) > 0 {
		trained, err := core.TrainModels(ctx, jobs, l.Scale.Workers)
		if err != nil {
			return nil, fmt.Errorf("experiments: training bases %v: %w", missing, err)
		}
		for i, base := range missing {
			l.models[base] = trained[i]
		}
	}
	out := make([]*core.Model, len(bases))
	for i, base := range bases {
		out[i] = l.models[base]
	}
	return out, nil
}

// CaseStudies lazily measures the four applications at every memory size
// with the scale's repetitions, honouring each app's drift. Cancelling ctx
// stops the campaign at the next experiment boundary.
func (l *Lab) CaseStudies(ctx context.Context) ([]*CaseStudy, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.caseStudies != nil {
		return l.caseStudies, nil
	}
	studies := make([]*CaseStudy, 0, 4)
	for _, app := range apps.All() {
		env := l.newEnv()
		env.Drift = app.Drift
		ds, err := harness.BuildDataset(ctx, harness.Options{
			Env:         env,
			Rate:        l.Scale.CaseRate,
			Duration:    l.Scale.CaseDuration,
			Sizes:       l.Sizes(),
			Seed:        l.Scale.Seed + 7,
			Workers:     l.Scale.Workers,
			Repetitions: l.Scale.Repetitions,
		}, app.Functions)
		if err != nil {
			return nil, fmt.Errorf("experiments: measuring %s: %w", app.Name, err)
		}
		studies = append(studies, &CaseStudy{App: app, Rows: ds.Rows})
	}
	l.caseStudies = studies
	return studies, nil
}
