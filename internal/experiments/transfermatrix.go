package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"sizeless/internal/core"
	"sizeless/internal/dataset"
	"sizeless/internal/fngen"
	"sizeless/internal/harness"
	"sizeless/internal/optimizer"
	"sizeless/internal/platform"
	"sizeless/internal/pool"
	"sizeless/internal/runtime"
	"sizeless/internal/workload"
	"sizeless/internal/xrand"
)

// TransferCell is one source→target entry of the provider transfer matrix:
// a model trained on the source provider's corpus, evaluated on functions
// measured on the target provider, under three strategies:
//
//   - stale: the source model used as-is on the target.
//   - fine-tuned: the source model adapted to a small target corpus with
//     frozen early layers (core.FineTune, the §5 workflow behind
//     sizeless.Predictor.Adapt).
//   - from-scratch: a fresh model trained only on the small target corpus.
type TransferCell struct {
	Source, Target string
	// Ratio-prediction quality on the target test set.
	Stale, FineTuned, FromScratch core.CVMetrics
	// Mean relative recommendation cost regret on the target test set: how
	// much more the strategy's recommended size costs (at measured
	// execution times, under the target's pricing) than the size the §3.5
	// score selects from measured times, at tradeoff t = 0.75. Zero means
	// every recommendation hit that optimum; negative values are possible
	// when mispredictions push the recommendation toward a cheaper but
	// slower size than the score-optimal one.
	StaleCostDelta, FineTunedCostDelta, FromScratchCostDelta float64
}

// OffDiagonal reports whether the cell crosses providers.
func (c TransferCell) OffDiagonal() bool { return c.Source != c.Target }

// TransferMatrixResult is the full source × target grid.
type TransferMatrixResult struct {
	// Providers lists the matrix axes in order.
	Providers []string
	// Sizes is the shared prediction grid (deployable on every provider)
	// and Base the monitored size all models share.
	Sizes []platform.MemorySize
	Base  platform.MemorySize
	// TrainFunctions/AdaptFunctions/TestFunctions are the per-provider
	// corpus sizes.
	TrainFunctions, AdaptFunctions, TestFunctions int
	// Tradeoff is the t used for the recommendation cost-delta.
	Tradeoff float64
	// Cells holds len(Providers)² entries, source-major.
	Cells []TransferCell
}

// Cell returns the source→target cell, or nil if absent.
func (r *TransferMatrixResult) Cell(source, target string) *TransferCell {
	for i := range r.Cells {
		if r.Cells[i].Source == source && r.Cells[i].Target == target {
			return &r.Cells[i]
		}
	}
	return nil
}

// providerSets bundles the per-provider measurement campaigns.
type providerSets struct {
	provider platform.Provider
	train    *dataset.Dataset
	adapt    *dataset.Dataset
	test     *dataset.Dataset
	model    *core.Model
}

// TransferMatrix quantifies cross-provider model portability — the ROADMAP
// open item behind the paper's §5 claim. For every ordered provider pair it
// trains on the source's synthetic corpus and compares the stale,
// fine-tuned, and from-scratch strategies on target-provider test
// functions, reporting both prediction quality and recommendation cost
// regret. All models share the providers' common memory grid so a single
// network shape transfers across clouds. Defaults to the three built-in
// providers when none are given.
func TransferMatrix(ctx context.Context, lab *Lab, providers ...platform.Provider) (*TransferMatrixResult, error) {
	if len(providers) == 0 {
		providers = []platform.Provider{
			platform.AWSLambda(), platform.GCPCloudFunctions(), platform.AzureFunctions(),
		}
	}
	shared := platform.CommonSizes(providers...)
	if len(shared) < 2 {
		return nil, fmt.Errorf("experiments: providers share %d memory sizes, need at least 2", len(shared))
	}
	base := platform.Nearest(platform.Mem256, shared)
	scale := lab.Scale

	// One synthetic-function population per role, shared across providers:
	// the catalog is platform-independent, only the measurements differ.
	trainSpecs, err := fngen.New(xrand.New(scale.Seed+1000), fngen.Options{}).Generate(scale.TrainFunctions)
	if err != nil {
		return nil, fmt.Errorf("experiments: transfer-matrix train specs: %w", err)
	}
	adaptSpecs, testSpecs, err := transferCorpora(scale)
	if err != nil {
		return nil, err
	}

	modelCfg := core.DefaultModelConfig(base)
	modelCfg.Sizes = shared
	modelCfg.Hidden = scale.Hidden
	modelCfg.Epochs = scale.Epochs
	modelCfg.Seed = scale.Seed

	tuneEpochs := scale.Epochs / 2
	if tuneEpochs < 50 {
		tuneEpochs = 50
	}

	sets := make([]providerSets, len(providers))
	for i, p := range providers {
		opts := harness.Options{
			Rate:     scale.Rate,
			Duration: scale.Duration,
			Sizes:    shared,
			Seed:     scale.Seed,
			Workers:  scale.Workers,
		}
		measure := func(specs []*workload.Spec, seedShift int64) (*dataset.Dataset, error) {
			o := opts
			o.Seed += seedShift
			o.Env = runtime.NewEnvFor(p.Platform())
			return harness.BuildDataset(ctx, o, specs)
		}
		sets[i].provider = p
		if sets[i].train, err = measure(trainSpecs, 0); err != nil {
			return nil, fmt.Errorf("experiments: transfer-matrix %s train set: %w", p.Name(), err)
		}
		if sets[i].adapt, err = measure(adaptSpecs, 50); err != nil {
			return nil, fmt.Errorf("experiments: transfer-matrix %s adapt set: %w", p.Name(), err)
		}
		if sets[i].test, err = measure(testSpecs, 60); err != nil {
			return nil, fmt.Errorf("experiments: transfer-matrix %s test set: %w", p.Name(), err)
		}
	}

	// All training goes through the shared pool: one source model per
	// provider plus one from-scratch model per *target* — the latter were
	// previously retrained per ordered pair although every source shares
	// the same small-corpus baseline (same config, seed, and data).
	jobs := make([]core.TrainJob, 0, 2*len(sets))
	for i := range sets {
		jobs = append(jobs, core.TrainJob{Dataset: sets[i].train, Config: modelCfg})
	}
	for i := range sets {
		jobs = append(jobs, core.TrainJob{Dataset: sets[i].adapt, Config: modelCfg})
	}
	models, err := core.TrainModels(ctx, jobs, scale.Workers)
	if err != nil {
		return nil, fmt.Errorf("experiments: transfer-matrix training: %w", err)
	}
	fresh := make([]*core.Model, len(sets))
	for i := range sets {
		sets[i].model = models[i]
		fresh[i] = models[len(sets)+i]
	}

	const tradeoff = 0.75
	res := &TransferMatrixResult{
		Sizes:          shared,
		Base:           base,
		TrainFunctions: scale.TrainFunctions,
		AdaptFunctions: len(adaptSpecs),
		TestFunctions:  len(testSpecs),
		Tradeoff:       tradeoff,
	}
	for _, s := range sets {
		res.Providers = append(res.Providers, s.provider.Name())
	}

	// Every ordered pair is independent: its fine-tune clones the source
	// model and its scores only read shared models, so the cells fan out
	// over the worker pool in source-major order.
	res.Cells = make([]TransferCell, len(sets)*len(sets))
	err = pool.Run(ctx, len(res.Cells), scale.Workers, func(idx int) error {
		src := sets[idx/len(sets)]
		ti := idx % len(sets)
		tgt := sets[ti]
		cell := TransferCell{Source: src.provider.Name(), Target: tgt.provider.Name()}
		pricing := tgt.provider.Platform().Pricing

		score := func(m *core.Model) (core.CVMetrics, float64, error) {
			metrics, err := core.Evaluate(m, tgt.test)
			if err != nil {
				return core.CVMetrics{}, 0, err
			}
			delta, err := costRegret(m, tgt.test, pricing, tradeoff)
			if err != nil {
				return core.CVMetrics{}, 0, err
			}
			return metrics, delta, nil
		}

		var err error
		if cell.Stale, cell.StaleCostDelta, err = score(src.model); err != nil {
			return fmt.Errorf("experiments: transfer-matrix %s→%s stale: %w", cell.Source, cell.Target, err)
		}

		tuned, err := core.FineTune(ctx, src.model, tgt.adapt, core.FineTuneOptions{
			Epochs:  tuneEpochs,
			Source:  cell.Source,
			Target:  cell.Target,
			Workers: 1, // the cell pool owns the parallelism budget
		})
		if err != nil {
			return fmt.Errorf("experiments: transfer-matrix %s→%s fine-tune: %w", cell.Source, cell.Target, err)
		}
		if cell.FineTuned, cell.FineTunedCostDelta, err = score(tuned); err != nil {
			return fmt.Errorf("experiments: transfer-matrix %s→%s fine-tuned: %w", cell.Source, cell.Target, err)
		}

		if cell.FromScratch, cell.FromScratchCostDelta, err = score(fresh[ti]); err != nil {
			return fmt.Errorf("experiments: transfer-matrix %s→%s from-scratch: %w", cell.Source, cell.Target, err)
		}

		res.Cells[idx] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// costRegret measures what a model's recommendations actually cost on a
// measured test set: for each function, recommend a size from the base-size
// summary, price the recommended and the measured-optimal size at their
// measured execution times, and average the relative overpayment.
func costRegret(m *core.Model, ds *dataset.Dataset, pricing platform.Pricer, tradeoff float64) (float64, error) {
	base := m.Config().Base
	var total float64
	for _, row := range ds.Rows {
		sum, ok := row.Summaries[base]
		if !ok {
			return 0, fmt.Errorf("row %q missing base size %v", row.FunctionID, base)
		}
		measured := row.ExecTimes()
		oracle, err := optimizer.Optimize(measured, pricing, tradeoff)
		if err != nil {
			return 0, err
		}
		predicted, err := m.Predict(sum)
		if err != nil {
			return 0, err
		}
		rec, err := optimizer.Optimize(predicted, pricing, tradeoff)
		if err != nil {
			return 0, err
		}
		chosenCost := invocationCost(pricing, rec.Best, measured[rec.Best])
		oracleCost := invocationCost(pricing, oracle.Best, measured[oracle.Best])
		if oracleCost > 0 {
			total += (chosenCost - oracleCost) / oracleCost
		}
	}
	return total / float64(len(ds.Rows)), nil
}

// invocationCost prices one invocation at the measured execution time.
func invocationCost(pricing platform.Pricer, m platform.MemorySize, execMs float64) float64 {
	return pricing.Cost(m, time.Duration(execMs*float64(time.Millisecond)))
}

// Render prints the transfer matrix: a compact MAPE grid plus the full
// per-pair strategy table.
func (r *TransferMatrixResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Provider transfer matrix — §5 cross-provider adaptation (stale vs fine-tuned vs from-scratch)\n")
	fmt.Fprintf(&b, "shared grid %v, base %v; per provider: %d train / %d adapt / %d test functions; t=%.2f\n\n",
		r.Sizes, r.Base, r.TrainFunctions, r.AdaptFunctions, r.TestFunctions, r.Tradeoff)

	grid := newTable(append([]string{"MAPE stale→tuned"}, r.Providers...)...)
	for _, src := range r.Providers {
		cells := []string{src}
		for _, tgt := range r.Providers {
			c := r.Cell(src, tgt)
			if c == nil {
				cells = append(cells, "-")
				continue
			}
			cells = append(cells, fmt.Sprintf("%.3f→%.3f", c.Stale.MAPE, c.FineTuned.MAPE))
		}
		grid.addRow(cells...)
	}
	b.WriteString(grid.String())
	b.WriteByte('\n')

	t := newTable("source", "target", "strategy", "MAPE", "R2", "cost regret")
	for _, c := range r.Cells {
		t.addRow(c.Source, c.Target, "stale", fmt.Sprintf("%.4f", c.Stale.MAPE),
			fmt.Sprintf("%.4f", c.Stale.R2), pct(c.StaleCostDelta))
		t.addRow("", "", "fine-tuned", fmt.Sprintf("%.4f", c.FineTuned.MAPE),
			fmt.Sprintf("%.4f", c.FineTuned.R2), pct(c.FineTunedCostDelta))
		t.addRow("", "", "from-scratch", fmt.Sprintf("%.4f", c.FromScratch.MAPE),
			fmt.Sprintf("%.4f", c.FromScratch.R2), pct(c.FromScratchCostDelta))
	}
	b.WriteString(t.String())
	return b.String()
}
