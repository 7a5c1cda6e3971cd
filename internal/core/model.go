package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"

	"sizeless/internal/dataset"
	"sizeless/internal/features"
	"sizeless/internal/monitoring"
	"sizeless/internal/nn"
	"sizeless/internal/platform"
	"sizeless/internal/pool"
	"sizeless/internal/xrand"
)

// ModelConfig describes one trainable model: which base size it monitors,
// which sizes it predicts, its feature set, and the network hyperparameters
// (Table 2).
type ModelConfig struct {
	// Base is the monitored memory size (the paper recommends 256 MB).
	Base platform.MemorySize
	// Sizes is the full memory grid; targets are Sizes minus Base.
	Sizes []platform.MemorySize
	// Features is the input feature set (defaults to the paper-final F4).
	Features []features.Feature
	// Network hyperparameters (paper final: 4×256, Adam, MAPE, 200
	// epochs, L2 = 0.01).
	Hidden    []int
	Optimizer nn.Optimizer
	Loss      nn.Loss
	Epochs    int
	L2        float64
	Seed      int64
	// EnsembleSize trains this many networks from different seeds and
	// averages their predictions. The paper trains a single network on
	// 2000 functions; at smaller dataset sizes a small ensemble removes
	// the prediction jitter of individual networks. Default: 3.
	EnsembleSize int
	// Workers bounds the training parallelism (0 = GOMAXPROCS, 1 =
	// sequential). Ensemble members share the workers in epoch slices, so
	// three members on two workers keep both busy to the end; in
	// CrossValidate, folds run concurrently instead. It is a scheduling
	// knob, not a hyperparameter: every member derives its own seed and
	// trains the same epochs in the same order, so the model is identical
	// for any value.
	Workers int
	// ValidationFraction holds this fraction of rows out of training as a
	// per-epoch validation split: every ensemble member returns its
	// best-validation weights instead of the last epoch's. Zero disables
	// the split unless Patience is set (then it defaults to 0.2).
	ValidationFraction float64
	// Patience stops each member's training after this many consecutive
	// epochs without validation improvement (0 = train the full budget).
	Patience int
}

// DefaultModelConfig returns the paper's final configuration for the given
// base size.
func DefaultModelConfig(base platform.MemorySize) ModelConfig {
	return ModelConfig{
		Base:      base,
		Sizes:     platform.StandardSizes(),
		Features:  features.PaperFinalFeatures(),
		Hidden:    []int{256, 256, 256, 256},
		Optimizer: nn.Adam,
		Loss:      nn.MAPE,
		Epochs:    200,
		L2:        0.01,
		Seed:      1,
	}
}

func (c ModelConfig) withDefaults() ModelConfig {
	if c.Sizes == nil {
		c.Sizes = platform.StandardSizes()
	}
	if c.Features == nil {
		c.Features = features.PaperFinalFeatures()
	}
	if c.Hidden == nil {
		c.Hidden = []int{256, 256, 256, 256}
	}
	if c.Optimizer == "" {
		c.Optimizer = nn.Adam
	}
	if c.Loss == "" {
		c.Loss = nn.MAPE
	}
	if c.Epochs <= 0 {
		c.Epochs = 200
	}
	if c.EnsembleSize <= 0 {
		c.EnsembleSize = 3
	}
	if c.Patience > 0 && c.ValidationFraction <= 0 {
		c.ValidationFraction = 0.2
	}
	return c
}

// validationSplit partitions already-scaled rows into train/validation
// subsets by a deterministic permutation derived from the seed. The split
// is shared by every ensemble member so their validation scores are
// comparable. Returns the inputs unchanged (no validation) when the
// fraction is unset or the dataset is too small to hold a row out.
func validationSplit(x, y [][]float64, frac float64, seed int64) (trX, trY, vaX, vaY [][]float64) {
	n := len(x)
	if frac <= 0 || n < 2 {
		return x, y, nil, nil
	}
	nVal := int(math.Round(frac * float64(n)))
	if nVal < 1 {
		nVal = 1
	}
	if nVal > n-1 {
		nVal = n - 1
	}
	perm := xrand.New(seed).Derive("val-split").Perm(n)
	trX = make([][]float64, 0, n-nVal)
	trY = make([][]float64, 0, n-nVal)
	vaX = make([][]float64, 0, nVal)
	vaY = make([][]float64, 0, nVal)
	for i, idx := range perm {
		if i < nVal {
			vaX = append(vaX, x[idx])
			vaY = append(vaY, y[idx])
		} else {
			trX = append(trX, x[idx])
			trY = append(trY, y[idx])
		}
	}
	return trX, trY, vaX, vaY
}

// Model is a trained execution-time predictor for one base size. It holds
// an ensemble of identically configured networks trained from different
// seeds; predictions are the ensemble mean.
type Model struct {
	cfg     ModelConfig
	targets []platform.MemorySize
	scaler  *nn.Scaler
	nets    []*nn.Network
	prov    Provenance
	// extractor is the pooled feature-extraction path shared by every
	// prediction entry point; its sync.Pool recycles feature matrices
	// across batch calls, so concurrent callers never contend on buffers.
	extractor *features.Extractor
	// sortedSizes is the grid in ascending order, precomputed so the
	// per-prediction isotonic projection stops sorting on every call.
	sortedSizes []platform.MemorySize
	// batchPool recycles forward-pass buffers (ForwardBatch scratch plus
	// per-sample output and ratio rows) for every prediction entry point:
	// a single prediction is a one-row batch, and the recommender's
	// recompute path makes one per function under concurrent ingestion.
	batchPool sync.Pool // stores *batchBuf
	// fpOnce guards fp and fpErr, the memoized Fingerprint.
	fpOnce sync.Once
	fp     string
	fpErr  error
}

// initDerived populates the computed fields shared by every construction
// path (Train, LoadModel, and FineTune's clone-via-LoadModel).
func (m *Model) initDerived() error {
	extractor, err := features.NewExtractor(m.cfg.Features)
	if err != nil {
		return err
	}
	m.extractor = extractor
	m.sortedSizes = append([]platform.MemorySize(nil), m.cfg.Sizes...)
	sort.Slice(m.sortedSizes, func(i, j int) bool { return m.sortedSizes[i] < m.sortedSizes[j] })
	return nil
}

// batchBuf is one reusable set of prediction buffers: forward-pass scratch
// plus per-sample rows for one ensemble member's outputs and the
// accumulated ensemble-mean ratios. The whole ensemble shares one network
// shape, so one scratch serves every member.
type batchBuf struct {
	fs     *nn.ForwardScratch
	preds  [][]float64 // chunk × outputs, one member's ForwardBatch results
	ratios [][]float64 // chunk × outputs, summed then clamped mean
}

// getBatchBuf borrows prediction scratch sized for `rows` samples. Every
// caller pairs it with a deferred batchPool.Put in the same function.
func (m *Model) getBatchBuf(rows int) *batchBuf {
	bb, ok := m.batchPool.Get().(*batchBuf)
	if !ok {
		bb = &batchBuf{fs: nn.NewForwardScratch()}
	}
	outs := len(m.targets)
	for len(bb.preds) < rows {
		bb.preds = append(bb.preds, make([]float64, outs))
		bb.ratios = append(bb.ratios, make([]float64, outs))
	}
	//lint:ignore poolescape provider half of the batch-predict pool: every caller pairs this with `defer m.batchPool.Put(bb)` in the same function
	return bb
}

// ratiosFromScaledBatch runs the ensemble over already-scaled feature rows
// through ForwardBatch — each member moves the whole chunk through its
// layers one layer at a time — and leaves the clamped mean ratios
// in bb.ratios[i] for row i: members summed in ensemble order, then mean,
// then clamp to a physically plausible band (no memory change yields a
// >50× slowdown or speedup on this platform; the CPU share spans only ~28×
// between 128 MB and 3008 MB). Read-only over the model: safe for
// concurrent use with distinct buffers.
func (m *Model) ratiosFromScaledBatch(scaled [][]float64, bb *batchBuf) error {
	nb := len(scaled)
	preds := bb.preds[:nb]
	ratios := bb.ratios[:nb]
	for _, row := range ratios {
		for i := range row {
			row[i] = 0
		}
	}
	for _, net := range m.nets {
		if err := net.ForwardBatch(scaled, preds, bb.fs); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		for s, p := range preds {
			row := ratios[s]
			for i, v := range p {
				row[i] += v
			}
		}
	}
	n := float64(len(m.nets))
	const minRatio, maxRatio = 0.02, 50.0
	for _, row := range ratios {
		for i := range row {
			r := row[i] / n
			if r < minRatio {
				r = minRatio
			}
			if r > maxRatio {
				r = maxRatio
			}
			row[i] = r
		}
	}
	return nil
}

// Train fits a model on the dataset. Cancelling ctx aborts training at
// the next epoch boundary of each ensemble member.
func Train(ctx context.Context, ds *dataset.Dataset, cfg ModelConfig) (*Model, error) {
	cfg = cfg.withDefaults()
	if len(ds.Rows) == 0 {
		return nil, errors.New("core: empty training dataset")
	}
	x, err := features.Matrix(ds, cfg.Base, cfg.Features)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	targets := features.TargetSizes(cfg.Sizes, cfg.Base)
	if len(targets) == 0 {
		return nil, errors.New("core: no target sizes")
	}
	y, err := features.Targets(ds, cfg.Base, targets)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	if f := cfg.ValidationFraction; !(f >= 0 && f < 1) {
		return nil, fmt.Errorf("core: validation fraction %v outside [0, 1)", f)
	}

	// Early stopping: every member trains against the same held-out split
	// (derived from the model seed, so the split — like everything else —
	// is reproducible) and keeps its best-validation weights. The split is
	// taken on the raw rows and the scaler fitted on the training rows
	// only, so validation scores never leak through the standardization
	// statistics.
	trXraw, trY, vaXraw, vaY := validationSplit(x, y, cfg.ValidationFraction, cfg.Seed)
	scaler, err := nn.FitScaler(trXraw)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	trX, err := scaler.TransformBatch(trXraw)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var vaX [][]float64
	if vaXraw != nil {
		if vaX, err = scaler.TransformBatch(vaXraw); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}

	// Ensemble members are independent; they share the worker pool in
	// epoch slices. Each member derives its own seed and keeps its own
	// weights, optimizer moments and shuffle stream, so the result does
	// not depend on scheduling or worker count.
	nets := make([]*nn.Network, cfg.EnsembleSize)
	runs := make([]*nn.Session, cfg.EnsembleSize)
	val := nn.Validation{X: vaX, Y: vaY, Patience: cfg.Patience}
	err = pool.RunSlices(ctx, cfg.EnsembleSize, cfg.Workers, cfg.Epochs, func(e, epochs int) (bool, error) {
		if runs[e] == nil {
			net, err := nn.New(nn.Config{
				Inputs:    len(cfg.Features),
				Outputs:   len(targets),
				Hidden:    cfg.Hidden,
				Optimizer: cfg.Optimizer,
				Loss:      cfg.Loss,
				L2:        cfg.L2,
				Epochs:    cfg.Epochs,
				Seed:      cfg.Seed + int64(e)*9973,
			})
			if err != nil {
				return false, err
			}
			if runs[e], err = net.NewSession(trX, trY, cfg.Epochs, val); err != nil {
				return false, err
			}
			nets[e] = net
		}
		return trainSlice(ctx, runs[e], nets[e], epochs)
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	m := &Model{cfg: cfg, targets: targets, scaler: scaler, nets: nets}
	if err := m.initDerived(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return m, nil
}

// trainSlice runs one slice of an ensemble member's training. A member
// that has finished is never trained again (FineTune clones through
// Save/Load), so its optimizer moments are dropped at once rather than
// held while the other members train.
func trainSlice(ctx context.Context, run *nn.Session, net *nn.Network, epochs int) (bool, error) {
	done, err := run.Train(ctx, epochs, nil)
	if done {
		net.DropOptimizerState()
	}
	return done, err
}

// Config returns the model's configuration.
func (m *Model) Config() ModelConfig { return m.cfg }

// Provenance reports how the model came to be. The zero value means the
// model was trained from scratch; FineTune stamps the adaptation settings.
func (m *Model) Provenance() Provenance { return m.prov }

// Targets returns the predicted memory sizes (grid minus base).
func (m *Model) Targets() []platform.MemorySize {
	return append([]platform.MemorySize(nil), m.targets...)
}

// PredictRatios predicts the execution-time ratios (target/base) from a
// base-size monitoring summary. Predictions are floored at a small positive
// value: a ratio of zero or below is physically impossible.
func (m *Model) PredictRatios(s monitoring.Summary) ([]float64, error) {
	rows, release := m.extractor.Borrow(1)
	defer release()
	features.ExtractInto(rows[0], m.cfg.Features, s)
	return m.predictVector(rows[0])
}

// predictVector scales a raw feature vector and returns the ensemble's
// clamped mean ratios in a fresh slice.
func (m *Model) predictVector(vec []float64) ([]float64, error) {
	scaled, err := m.scaler.Transform(vec)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	bb := m.getBatchBuf(1)
	defer m.batchPool.Put(bb)
	if err := m.ratiosFromScaledBatch([][]float64{scaled}, bb); err != nil {
		return nil, err
	}
	return append([]float64(nil), bb.ratios[0]...), nil
}

// Predict returns the execution time in milliseconds for every size in the
// grid. The base size reports the monitored value itself; target sizes use
// the predicted ratios. Predictions are projected onto the physically valid
// region: on a platform whose every resource scales monotonically with
// memory, execution time cannot increase with memory, so any inversion in
// the raw network output is flattened (isotonic projection in size order,
// anchored at the monitored base value).
//
// Predict is a one-row batch through the same pooled extraction and
// forward-pass buffers as PredictBatch (the result map is the only
// allocation besides bookkeeping), so it is cheap enough for a continuous
// recommender to call once per drifted function, and safe to call from
// many goroutines at once.
func (m *Model) Predict(s monitoring.Summary) (map[platform.MemorySize]float64, error) {
	if err := CheckSummary(s); err != nil {
		return nil, err
	}
	rows, release := m.extractor.Borrow(1)
	defer release()
	features.ExtractInto(rows[0], m.cfg.Features, s)
	if err := m.scaler.TransformInPlace(rows[:1]); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	bb := m.getBatchBuf(1)
	defer m.batchPool.Put(bb)
	if err := m.ratiosFromScaledBatch(rows[:1], bb); err != nil {
		return nil, err
	}
	return m.timesFromRatios(s.Mean[monitoring.ExecutionTime], bb.ratios[0]), nil
}

// timesFromRatios assembles the per-size execution-time map from the base
// measurement and the predicted ratios, applying the isotonic projection.
func (m *Model) timesFromRatios(baseMs float64, ratios []float64) map[platform.MemorySize]float64 {
	out := make(map[platform.MemorySize]float64, len(m.targets)+1)
	out[m.cfg.Base] = baseMs
	for i, mem := range m.targets {
		out[mem] = ratios[i] * baseMs
	}
	enforceMonotone(out, m.sortedSizes)
	return out
}

// CheckSummary reports whether Predict can use s: its mean execution
// time, the base every predicted ratio scales, must be positive.
func CheckSummary(s monitoring.Summary) error {
	if s.Mean[monitoring.ExecutionTime] <= 0 {
		return errors.New("core: summary has non-positive execution time")
	}
	return nil
}

// PredictBatch predicts execution times for many summaries in one pass —
// the fleet-scale hot path of a provider-side recommender. Feature
// extraction and scaling are amortized into single matrix operations, and
// the rows are split evenly into chunks of at most 16, at least one per
// worker (0 = GOMAXPROCS), that run concurrently. Each chunk moves through
// every ensemble member one layer at a time (nn.ForwardBatch), so a
// layer's weights stay cached across the chunk. Results are positionally
// aligned with sums and equal Predict on each summary bit for bit,
// however the rows are chunked. Cancelling ctx abandons unstarted chunks.
func (m *Model) PredictBatch(ctx context.Context, sums []monitoring.Summary, workers int) ([]map[platform.MemorySize]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(sums) == 0 {
		return nil, nil
	}
	// Amortized feature extraction into a pooled matrix, scaled in place:
	// repeated batch calls recycle the same storage instead of allocating a
	// fresh matrix per call.
	scaled, release := m.extractor.Borrow(len(sums))
	defer release()
	for i, s := range sums {
		if CheckSummary(s) != nil {
			return nil, fmt.Errorf("core: summary %d has non-positive execution time", i)
		}
		features.ExtractInto(scaled[i], m.cfg.Features, s)
	}
	if err := m.scaler.TransformInPlace(scaled); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// Chunked fan-out over the shared bounded pool. Jobs write only their
	// own indices, so results are deterministic for any worker count.
	const maxChunk = 16
	n := len(sums)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunks := max((n+maxChunk-1)/maxChunk, min(workers, n))
	out := make([]map[platform.MemorySize]float64, n)
	err := pool.Run(ctx, chunks, workers, func(c int) error {
		start, end := c*n/chunks, (c+1)*n/chunks
		bb := m.getBatchBuf(end - start)
		defer m.batchPool.Put(bb)
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := m.ratiosFromScaledBatch(scaled[start:end], bb); err != nil {
			return err
		}
		for i := start; i < end; i++ {
			out[i] = m.timesFromRatios(sums[i].Mean[monitoring.ExecutionTime], bb.ratios[i-start])
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: batch predict: %w", err)
	}
	return out, nil
}

// enforceMonotone flattens inversions: traversing the already-ascending
// sizes, each prediction is capped by its predecessor's value. Callers pass
// a pre-sorted grid (Model.sortedSizes) so the per-prediction hot path does
// not sort.
func enforceMonotone(times map[platform.MemorySize]float64, ascending []platform.MemorySize) {
	prev := math.Inf(1)
	for _, m := range ascending {
		t, ok := times[m]
		if !ok {
			continue
		}
		if t > prev {
			times[m] = prev
		} else {
			prev = t
		}
	}
}

// Save persists the trained model (network weights, scaler, config
// metadata) as one line of JSON, the bytes encoding/json writes for the
// persisted shape. The feature set is identified by name; loading resolves
// names against the paper-final feature constructors. A NaN or infinite
// weight, bias or scaler value is an error.
func (m *Model) Save(w io.Writer) error {
	return saveModel(m, w)
}
