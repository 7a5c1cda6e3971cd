package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"sizeless"
	"sizeless/internal/optimizer"
	"sizeless/internal/platform"
)

// quality is what a pass's recommendations are worth on the held-out set,
// scored against the simulator's measured times at every size.
type quality struct {
	optimal, top2, speedup, costChange float64
}

// passResult identifies a pass's output: same-seed passes must agree.
type passResult struct {
	fingerprint string
	quality     quality
	trainRows   int
}

// pipelinePass runs the paper's pipeline once: measure the training set,
// train the predictor, measure the held-out set, recommend a size for
// each held-out function from its base-size summary, and score the
// recommendations against the measured optimum.
func pipelinePass(ctx context.Context, cfg config) (passResult, error) {
	sc, tr := cfg.sc, cfg.trace
	provider := sizeless.AWSLambda()
	root := tr.begin("pipeline.pass", spanRef{})
	defer root.end()
	measure := func(seed int64) (*sizeless.Dataset, error) {
		sp := tr.begin("harness.generate", root.ref())
		defer sp.end()
		return sizeless.GenerateDataset(ctx,
			sizeless.WithProvider(provider),
			sizeless.WithFunctions(sc.pipeFunctions),
			sizeless.WithRate(sc.pipeRate),
			sizeless.WithDuration(sc.pipeDuration),
			sizeless.WithSeed(seed),
			sizeless.WithWorkers(sc.workers),
		)
	}

	trainDS, err := measure(cfg.seed)
	if err != nil {
		return passResult{}, err
	}
	opts := []sizeless.Option{
		sizeless.WithProvider(provider),
		sizeless.WithSeed(cfg.seed),
		sizeless.WithWorkers(sc.workers),
		sizeless.WithEpochs(sc.pipeEpochs),
		sizeless.WithEnsembleSize(sc.pipeEnsemble),
	}
	if sc.pipeHidden != nil {
		opts = append(opts, sizeless.WithHidden(sc.pipeHidden...))
	}
	sp := tr.begin("core.train", root.ref())
	pred, err := sizeless.TrainPredictor(ctx, trainDS, opts...)
	sp.end()
	if err != nil {
		return passResult{}, err
	}
	heldDS, err := measure(subSeed(cfg.seed, "offline-pipeline/held-out"))
	if err != nil {
		return passResult{}, err
	}

	base := pred.Base()
	sums := make([]sizeless.Summary, len(heldDS.Rows))
	for i, row := range heldDS.Rows {
		sums[i] = row.Summaries[base]
	}
	sp = tr.begin("sizeless.recommend_batch", root.ref())
	recs, err := pred.RecommendBatch(ctx, sums, defaultTradeoff)
	sp.end()
	if err != nil {
		return passResult{}, err
	}

	sp = tr.begin("optimizer.rank", root.ref())
	q, err := score(heldDS, recs, base, pred.Provider().Platform().Pricing)
	sp.end()
	if err != nil {
		return passResult{}, err
	}
	fp, err := pred.Fingerprint()
	if err != nil {
		return passResult{}, err
	}
	return passResult{fingerprint: fp, quality: q, trainRows: len(trainDS.Rows)}, nil
}

// score ranks each recommendation against the measured S_total ordering
// (Fig. 7) and averages the benefit of moving from the base size (Table 8).
func score(ds *sizeless.Dataset, recs []sizeless.Recommendation, base sizeless.MemorySize, pricing platform.Pricer) (quality, error) {
	var q quality
	for i, row := range ds.Rows {
		measured := make(map[platform.MemorySize]float64, len(ds.Sizes))
		for _, m := range ds.Sizes {
			t, ok := row.ExecTimeMs(m)
			if !ok {
				return quality{}, fmt.Errorf("%s: no measurement at %v", row.FunctionID, m)
			}
			measured[m] = t
		}
		rank, err := optimizer.Rank(recs[i].Best, measured, pricing, defaultTradeoff)
		if err != nil {
			return quality{}, fmt.Errorf("%s: %w", row.FunctionID, err)
		}
		if rank < 1 || rank > len(ds.Sizes) {
			return quality{}, fmt.Errorf("%s: rank %d outside 1..%d", row.FunctionID, rank, len(ds.Sizes))
		}
		if rank == 1 {
			q.optimal++
		}
		if rank <= 2 {
			q.top2++
		}
		b, err := optimizer.Benefits(measured, pricing, base, recs[i].Best)
		if err != nil {
			return quality{}, fmt.Errorf("%s: %w", row.FunctionID, err)
		}
		q.speedup += 100 * b.Speedup
		q.costChange -= 100 * b.CostSavings
	}
	n := float64(len(ds.Rows))
	return quality{q.optimal / n, q.top2 / n, q.speedup / n, q.costChange / n}, nil
}

// runOfflinePipeline repeats the whole pipeline on the same seed; every
// pass must produce the same model and scores.
func runOfflinePipeline(ctx context.Context, cfg config) (*outcome, error) {
	sc, out := cfg.sc, newOutcome()
	// Set-up is the cold first pass. Whatever the pipeline initialises
	// lazily, or a change caches across passes, is paid there and shows
	// in setup_s rather than in the timed passes. The cold pass is
	// untraced; its result is the reference every timed pass must
	// reproduce.
	t0 := time.Now()
	cold := cfg
	cold.trace = nil
	ref, err := pipelinePass(ctx, cold)
	if err != nil {
		return nil, err
	}
	setup := since(t0)
	out.timed("setup_s", setup.to.Sub(setup.from).Seconds(), setup)

	runtime.GC()
	smp := startSampler()
	var passes []time.Duration
	var results []passResult
	start := time.Now()
	// Another pass only if it is expected to end less than half a pass
	// past the timed phase, so the pass count is the phase length over the
	// pass time, rounded.
	for len(passes) == 0 || time.Since(start)+summarize(passes).P50/2 < cfg.seconds {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		t0 := time.Now()
		res, err := pipelinePass(ctx, cfg)
		if err != nil {
			return nil, err
		}
		passes = append(passes, time.Since(t0))
		results = append(results, res)
	}
	timed := since(start)
	smp.finish(out)

	out.attempted, out.failed = len(passes), 0
	passTime := summarize(passes)
	out.setTiming("pipeline pass", passTime, timed)
	// The rate of the median pass: with a handful of passes a run, one
	// pass slowed by a busy neighbour would move the mean rate by its
	// whole excess.
	out.timed("throughput_per_s", float64(2*sc.pipeFunctions)/passTime.P50.Seconds(), timed)
	q := ref.quality
	out.notef("%d timed passes of %d+%d functions in %v (functions/s of the median pass); model %s", len(passes), sc.pipeFunctions, sc.pipeFunctions, timed.to.Sub(timed.from).Round(time.Millisecond), ref.fingerprint)
	out.notef("held-out: optimal %.3f, top-2 %.3f, speedup %.2f%%, cost change %.2f%%", q.optimal, q.top2, q.speedup, q.costChange)
	checkPasses(out, ref, results)
	if q.top2 < sc.pipeMinTop2 {
		out.problemf("only %.3f of held-out functions got a top-2 size (floor %.2f)", q.top2, sc.pipeMinTop2)
	}

	out.layers["quality.optimal_share"] = q.optimal
	out.layers["quality.top2_share"] = q.top2
	out.layers["quality.speedup_pct"] = q.speedup
	out.layers["quality.cost_change_pct"] = q.costChange
	if cfg.trace != nil {
		out.spans = cfg.trace.snapshot()
		table := layerIndex(layerTable(out.spans))
		gen, train := table["harness.generate"], table["core.train"]
		sizes := len(sizeless.AWSLambda().DefaultSizes())
		invocations := float64(sc.pipeFunctions*sizes) * sc.pipeRate * sc.pipeDuration.Seconds()
		out.layers["harness.generate_s"] = gen.MeanUS / 1e6
		out.layers["harness.sim_invocations_per_s"] = invocations / (gen.MeanUS / 1e6)
		out.layers["core.train_s"] = train.MeanUS / 1e6
		// Network row-epochs: every ensemble member sees every training
		// row once per epoch.
		rowEpochs := float64(ref.trainRows * sc.pipeEpochs * sc.pipeEnsemble)
		out.layers["core.train_row_epochs_per_s"] = rowEpochs / (train.MeanUS / 1e6)
		pass := table["pipeline.pass"]
		out.layers["trace.coverage"] = 1 - pass.MeanSelfUS/pass.MeanUS
	}
	return out, nil
}

// checkPasses is offline-pipeline's oracle: the pipeline is deterministic
// per seed, so every pass must train the same model as the cold pass ref
// and score the same.
func checkPasses(out *outcome, ref passResult, results []passResult) {
	for i, r := range results {
		if r != ref {
			out.problemf("timed pass %d differs from the cold pass: model %s, %+v; want model %s, %+v",
				i+1, r.fingerprint, r.quality, ref.fingerprint, ref.quality)
		}
	}
}
