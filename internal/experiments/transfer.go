package experiments

import (
	"context"
	"fmt"
	"strings"

	"sizeless/internal/core"
	"sizeless/internal/fngen"
	"sizeless/internal/harness"
	"sizeless/internal/platform"
	rt "sizeless/internal/runtime"
	"sizeless/internal/services"
	"sizeless/internal/workload"
	"sizeless/internal/xrand"
)

// TransferLearningResult is the A5 extension experiment: the paper's §5
// proposal for surviving a provider-side platform change. A "platform
// upgrade" shifts the resource-scaling behaviour; three strategies compete
// on a test set measured on the NEW platform:
//
//   - stale: the original model, unchanged.
//   - fine-tuned: original model with frozen early layers, retrained on a
//     small new-platform dataset.
//   - from-scratch: a fresh model trained only on the small new dataset.
type TransferLearningResult struct {
	// AdaptFunctions is the small new-platform dataset size.
	AdaptFunctions int
	// TestFunctions is the held-out new-platform evaluation population.
	TestFunctions int
	Stale         core.CVMetrics
	FineTuned     core.CVMetrics
	FromScratch   core.CVMetrics
}

// upgradedEnv models the provider upgrade: faster cold CPU scheduling,
// doubled network cap, faster DynamoDB backend.
func upgradedEnv() *rt.Env {
	env := rt.NewEnv()
	env.Platform.Resources.ThrottleOverhead = 0.10 // better cgroup scheduler
	env.Platform.Resources.NetCapMBps = 160        // network stack upgrade
	env.Platform.Resources.NetPerMBps = 0.09
	reg := services.NewRegistry(nil)
	fast, err := reg.Profile(services.DynamoDB)
	if err == nil {
		fast.BaseLatencyMs = 4 // storage-backend upgrade
		reg.SetProfile(services.DynamoDB, fast)
	}
	env.Services = reg
	return env
}

// TransferLearning runs the A5 experiment.
func TransferLearning(ctx context.Context, lab *Lab) (*TransferLearningResult, error) {
	const base = platform.Mem256
	orig, err := lab.Model(ctx, base)
	if err != nil {
		return nil, err
	}

	env := upgradedEnv()
	scale := lab.Scale
	newOpts := harness.Options{
		Env:      env,
		Rate:     scale.Rate,
		Duration: scale.Duration,
		Seed:     scale.Seed + 50,
		Workers:  scale.Workers,
	}

	adaptSpecs, testSpecs, err := transferCorpora(scale)
	if err != nil {
		return nil, err
	}
	adaptDS, err := harness.BuildDataset(ctx, newOpts, adaptSpecs)
	if err != nil {
		return nil, fmt.Errorf("experiments: transfer adapt measurement: %w", err)
	}
	testDS, err := harness.BuildDataset(ctx, newOpts, testSpecs)
	if err != nil {
		return nil, fmt.Errorf("experiments: transfer test measurement: %w", err)
	}

	res := &TransferLearningResult{
		AdaptFunctions: len(adaptSpecs),
		TestFunctions:  len(testSpecs),
	}
	if res.Stale, err = core.Evaluate(orig, testDS); err != nil {
		return nil, err
	}

	tuned, err := core.FineTune(ctx, orig, adaptDS, core.FineTuneOptions{Epochs: scale.Epochs / 2})
	if err != nil {
		return nil, err
	}
	if res.FineTuned, err = core.Evaluate(tuned, testDS); err != nil {
		return nil, err
	}

	fresh, err := core.Train(ctx, adaptDS, lab.modelConfig(base))
	if err != nil {
		return nil, err
	}
	if res.FromScratch, err = core.Evaluate(fresh, testDS); err != nil {
		return nil, err
	}
	return res, nil
}

// transferCorpora generates the two target-platform corpora both transfer
// experiments measure: a small adaptation corpus (a fifth of the training
// population, at least 20 functions) and a held-out test corpus (a
// quarter, at least 30), each from its own seed.
func transferCorpora(scale Scale) (adapt, test []*workload.Spec, err error) {
	adapt, err = fngen.New(xrand.New(scale.Seed+5000), fngen.Options{}).Generate(max(scale.TrainFunctions/5, 20))
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: transfer adapt set: %w", err)
	}
	test, err = fngen.New(xrand.New(scale.Seed+6000), fngen.Options{}).Generate(max(scale.TrainFunctions/4, 30))
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: transfer test set: %w", err)
	}
	return adapt, test, nil
}

// Render prints A5.
func (r *TransferLearningResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension A5 — transfer learning after a platform change (§5 future work)\n")
	fmt.Fprintf(&b, "adapt set: %d functions, test set: %d functions (both on the upgraded platform)\n\n",
		r.AdaptFunctions, r.TestFunctions)
	t := newTable("strategy", "MAPE", "MSE", "R2")
	row := func(name string, m core.CVMetrics) {
		t.addRow(name, fmt.Sprintf("%.4f", m.MAPE), fmt.Sprintf("%.4f", m.MSE), fmt.Sprintf("%.4f", m.R2))
	}
	row("stale model (no adaptation)", r.Stale)
	row("fine-tuned (frozen early layers)", r.FineTuned)
	row("from scratch on small dataset", r.FromScratch)
	b.WriteString(t.String())
	return b.String()
}
