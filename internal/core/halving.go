package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"sizeless/internal/dataset"
	"sizeless/internal/features"
	"sizeless/internal/nn"
	"sizeless/internal/pool"
)

// HalvingOptions configures GridSearchHalving, the successive-halving
// (Jamieson & Talwalkar) alternative to the exhaustive Table-2 sweep.
type HalvingOptions struct {
	// ValidationFraction of rows is held out once, up front, to score
	// every configuration (default 0.25). The same split serves every
	// round, so scores are comparable across rounds.
	ValidationFraction float64
	// StartFraction of each configuration's epoch budget is trained in
	// the first round (default 0.25); the cumulative fraction doubles
	// every round until it reaches 1.
	StartFraction float64
	// KeepAll disables elimination: every configuration trains to its
	// full budget. Because survivors train incrementally and the engine's
	// shuffle stream persists across segments, a keep-all run is
	// bit-identical to exhaustively training every configuration once at
	// full budget — the property the equivalence tests pin.
	KeepAll bool
	// Seed drives the validation split. Per-configuration training seeds
	// come from the configurations themselves (base.Seed, as in Train).
	Seed int64
}

func (o HalvingOptions) withDefaults() HalvingOptions {
	if o.ValidationFraction <= 0 {
		o.ValidationFraction = 0.25
	}
	if o.StartFraction <= 0 {
		o.StartFraction = 0.25
	}
	return o
}

// HalvingScore is one configuration's final standing in a halving search.
type HalvingScore struct {
	Config ModelConfig
	// ValMSE is the validation MSE of the configuration's ensemble-mean
	// ratio predictions at the last round it trained in.
	ValMSE float64
	// EpochsSpent is the cumulative epoch count this configuration
	// consumed, summed over ensemble members.
	EpochsSpent int
	// Eliminated is the zero-based round the configuration was cut after;
	// -1 for configurations that survived to the full budget.
	Eliminated int
}

// HalvingRound summarizes one rung of the schedule.
type HalvingRound struct {
	// Fraction is the cumulative budget fraction configurations reached
	// this round.
	Fraction float64
	// Configs is how many configurations trained this round.
	Configs int
	// Epochs is the epoch count spent this round across all
	// configurations and ensemble members.
	Epochs int
	// BestValMSE is the round's best validation score.
	BestValMSE float64
}

// HalvingResult is the output of GridSearchHalving.
type HalvingResult struct {
	// Scores ranks every configuration best-first: full-budget survivors
	// by validation MSE, then eliminated configurations by elimination
	// round (latest first) and validation MSE.
	Scores []HalvingScore
	// Rounds records the schedule actually run.
	Rounds []HalvingRound
	// TotalEpochs is the search's overall epoch spend.
	TotalEpochs int
	// ExhaustiveEpochs is what training every configuration to its full
	// budget would have spent — the denominator of the headline "≤ half
	// the epochs" property.
	ExhaustiveEpochs int
}

// Winner returns the best-ranked configuration.
func (r *HalvingResult) Winner() HalvingScore { return r.Scores[0] }

// halvingState is one configuration's live search state.
type halvingState struct {
	cfg     ModelConfig
	order   int // position in the grid's enumeration, the tie-break
	nets    []*nn.Network
	trained int // cumulative epochs per ensemble member
	valMSE  float64
	spent   int // cumulative epochs across members
	elim    int // round eliminated, -1 while alive
}

// GridSearchHalving runs successive halving over the grid: every
// configuration trains for StartFraction of its epoch budget, the best
// half by validation MSE survives, the budget fraction doubles, and the
// cycle repeats until the survivors reach their full budget. Survivors
// train *incrementally* — a round continues each network from its current
// weights, optimizer moments, and shuffle stream — so the search spends
// half the epochs of the exhaustive sweep (StartFraction 1/4, keep-half)
// while the final round's scores are exactly what full-budget training
// would have produced for those configurations.
//
// Configurations run concurrently through the shared worker pool (bounded
// by base.Workers); every per-configuration computation is seeded from the
// configuration itself, so the survivor sequence is identical for any
// worker count. Cancelling ctx abandons the search at the next epoch or
// job boundary and returns the context's error with no partial result.
//
// base.Patience and base.ValidationFraction are ignored here: rung budgets
// are the search's own adaptivity, and stopping a survivor inside a round
// would break the staged ≡ continuous equivalence the final-round scores
// rely on (in-round early stopping is a tracked ROADMAP follow-up). The
// hold-out split is configured via HalvingOptions.ValidationFraction
// instead.
func GridSearchHalving(ctx context.Context, ds *dataset.Dataset, base ModelConfig, grid GridSpec, opts HalvingOptions) (*HalvingResult, error) {
	if grid.Size() == 0 {
		return nil, errors.New("core: empty hyperparameter grid")
	}
	opts = opts.withDefaults()
	if opts.ValidationFraction >= 1 {
		return nil, fmt.Errorf("core: halving validation fraction %v outside (0, 1)", opts.ValidationFraction)
	}
	if opts.StartFraction > 1 {
		return nil, fmt.Errorf("core: halving start fraction %v above 1", opts.StartFraction)
	}
	if len(ds.Rows) < 2 {
		return nil, errors.New("core: halving needs at least two rows to hold a validation split out")
	}

	// Shared pre-processing: the grid varies only network hyperparameters,
	// so features, targets, split, and scaler are computed once.
	cfg0 := base.withDefaults()
	x, err := features.Matrix(ds, cfg0.Base, cfg0.Features)
	if err != nil {
		return nil, fmt.Errorf("core: halving: %w", err)
	}
	targets := features.TargetSizes(cfg0.Sizes, cfg0.Base)
	if len(targets) == 0 {
		return nil, errors.New("core: halving: no target sizes")
	}
	y, err := features.Targets(ds, cfg0.Base, targets)
	if err != nil {
		return nil, fmt.Errorf("core: halving: %w", err)
	}
	trXraw, trY, vaXraw, vaY := validationSplit(x, y, opts.ValidationFraction, opts.Seed)
	// The scaler fits on the training split only — validation scores must
	// not leak through the standardization statistics (Train follows the
	// same rule when its own validation split is active).
	scaler, err := nn.FitScaler(trXraw)
	if err != nil {
		return nil, fmt.Errorf("core: halving: %w", err)
	}
	trX, err := scaler.TransformBatch(trXraw)
	if err != nil {
		return nil, fmt.Errorf("core: halving: %w", err)
	}
	vaX, err := scaler.TransformBatch(vaXraw)
	if err != nil {
		return nil, fmt.Errorf("core: halving: %w", err)
	}

	states := make([]*halvingState, 0, grid.Size())
	for _, cfg := range grid.Configs(base) {
		cfg = cfg.withDefaults()
		nets := make([]*nn.Network, cfg.EnsembleSize)
		for e := range nets {
			nets[e], err = nn.New(nn.Config{
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
				return nil, fmt.Errorf("core: halving: %w", err)
			}
		}
		states = append(states, &halvingState{cfg: cfg, order: len(states), nets: nets, elim: -1})
	}

	res := &HalvingResult{}
	for _, st := range states {
		res.ExhaustiveEpochs += st.cfg.Epochs * len(st.nets)
	}

	alive := make([]*halvingState, len(states))
	copy(alive, states)
	frac := opts.StartFraction
	for round := 0; ; round++ {
		// Train every survivor up to this round's cumulative budget and
		// re-score it on the shared validation split. Configurations go
		// through the pool; members within one configuration run
		// sequentially (the configuration pool owns the parallelism
		// budget, as in GridSearch).
		err := pool.Run(ctx, len(alive), base.Workers, func(i int) error {
			st := alive[i]
			target := st.cfg.Epochs
			if frac < 1 {
				target = int(math.Round(frac * float64(st.cfg.Epochs)))
				if target < 1 {
					target = 1
				}
			}
			if inc := target - st.trained; inc > 0 {
				for _, net := range st.nets {
					if _, err := net.TrainEpochs(ctx, trX, trY, inc); err != nil {
						return err
					}
				}
				st.spent += inc * len(st.nets)
				st.trained = target
			}
			st.valMSE = ensembleValMSE(st.nets, vaX, vaY)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("core: halving round %d: %w", round, err)
		}
		summary := HalvingRound{Fraction: frac, Configs: len(alive), BestValMSE: math.Inf(1)}
		for _, st := range alive {
			if st.valMSE < summary.BestValMSE {
				summary.BestValMSE = st.valMSE
			}
		}
		prevTotal := res.TotalEpochs
		res.TotalEpochs = 0
		for _, st := range states {
			res.TotalEpochs += st.spent
		}
		summary.Epochs = res.TotalEpochs - prevTotal
		res.Rounds = append(res.Rounds, summary)

		if frac >= 1 {
			break
		}
		if !opts.KeepAll && len(alive) > 1 {
			// Keep the best half, ties broken by the grid's enumeration
			// order — fully deterministic regardless of how earlier
			// rounds permuted alive.
			sort.Slice(alive, func(i, j int) bool {
				if alive[i].valMSE != alive[j].valMSE {
					return alive[i].valMSE < alive[j].valMSE
				}
				return alive[i].order < alive[j].order
			})
			keep := (len(alive) + 1) / 2
			for _, st := range alive[keep:] {
				st.elim = round
			}
			alive = alive[:keep]
		}
		frac = math.Min(1, frac*2)
	}

	// Rank: survivors by validation MSE, then eliminated configurations by
	// how long they lasted and their last score.
	res.Scores = make([]HalvingScore, 0, len(states))
	for _, st := range states {
		res.Scores = append(res.Scores, HalvingScore{
			Config:      st.cfg,
			ValMSE:      st.valMSE,
			EpochsSpent: st.spent,
			Eliminated:  st.elim,
		})
	}
	sort.SliceStable(res.Scores, func(i, j int) bool {
		a, b := res.Scores[i], res.Scores[j]
		if (a.Eliminated < 0) != (b.Eliminated < 0) {
			return a.Eliminated < 0
		}
		if a.Eliminated != b.Eliminated {
			return a.Eliminated > b.Eliminated
		}
		return a.ValMSE < b.ValMSE
	})
	return res, nil
}

// ensembleValMSE scores an ensemble on the validation split: MSE of the
// ensemble-mean ratio predictions pooled over rows and targets.
// Deterministic and read-only over the networks.
func ensembleValMSE(nets []*nn.Network, vaX, vaY [][]float64) float64 {
	// One row per forward pass: a one-row batch takes the single-row
	// kernel, so scores stay bit-identical to per-sample prediction.
	var fs nn.ForwardScratch
	outs := len(vaY[0])
	mean := make([]float64, outs)
	pred := [][]float64{make([]float64, outs)}
	var sse float64
	for i := range vaX {
		clear(mean)
		for _, net := range nets {
			if err := net.ForwardBatch(vaX[i:i+1], pred, &fs); err != nil {
				// Shapes were validated at construction; a failure here is
				// a programming error, surfaced as an infinite score.
				return math.Inf(1)
			}
			for j, v := range pred[0] {
				mean[j] += v
			}
		}
		for j := range mean {
			d := mean[j]/float64(len(nets)) - vaY[i][j]
			sse += d * d
		}
	}
	return sse / float64(len(vaX)*outs)
}
