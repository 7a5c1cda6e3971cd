package experiments

import (
	"context"
	"fmt"
	"strings"

	"sizeless/internal/core"
	"sizeless/internal/features"
	"sizeless/internal/monitoring"
	"sizeless/internal/nn"
	"sizeless/internal/optimizer"
	"sizeless/internal/platform"
	"sizeless/internal/stats"
	"sizeless/internal/xrand"
)

// AblationTargetsResult compares the paper's ratio-target preprocessing
// (§3.4) against predicting absolute execution times (extension A1).
type AblationTargetsResult struct {
	// RatioMAPE is the CV MAPE of the ratio-target model evaluated on
	// absolute times.
	RatioMAPE float64
	// AbsoluteMAPE is the CV MAPE of an absolute-time model.
	AbsoluteMAPE float64
}

// AblationTargets trains both variants with matched budgets under k-fold CV
// and scores both on absolute execution times.
func AblationTargets(ctx context.Context, lab *Lab, k int) (*AblationTargetsResult, error) {
	ds, err := lab.Dataset(ctx)
	if err != nil {
		return nil, err
	}
	const base = platform.Mem256
	cfg := lab.modelConfig(base)
	targets := features.TargetSizes(ds.Sizes, base)

	folds, err := ds.KFold(k, xrand.New(lab.Scale.Seed+31).Derive("ablation-targets"))
	if err != nil {
		return nil, err
	}

	var ratioPreds, absPreds, truths []float64
	for fi, fold := range folds {
		train := ds.Complement(fold)
		test := ds.Subset(fold)

		// Variant 1: paper pipeline (ratio targets).
		rCfg := cfg
		rCfg.Seed = cfg.Seed + int64(fi)
		ratioModel, err := core.Train(ctx, train, rCfg)
		if err != nil {
			return nil, err
		}

		// Variant 2: absolute-time targets on the same features.
		x, err := features.Matrix(train, base, cfg.Features)
		if err != nil {
			return nil, err
		}
		yAbs := make([][]float64, len(train.Rows))
		for i, row := range train.Rows {
			vec := make([]float64, len(targets))
			for j, m := range targets {
				t, _ := row.ExecTimeMs(m)
				vec[j] = t
			}
			yAbs[i] = vec
		}
		scaler, err := nn.FitScaler(x)
		if err != nil {
			return nil, err
		}
		xs, err := scaler.TransformBatch(x)
		if err != nil {
			return nil, err
		}
		absNet, err := nn.New(nn.Config{
			Inputs: len(cfg.Features), Outputs: len(targets),
			Hidden: cfg.Hidden, Optimizer: cfg.Optimizer, Loss: cfg.Loss,
			L2: cfg.L2, Epochs: cfg.Epochs, Seed: cfg.Seed + int64(fi),
		})
		if err != nil {
			return nil, err
		}
		if _, err := absNet.Train(ctx, xs, yAbs); err != nil {
			return nil, err
		}

		for _, row := range test.Rows {
			s := row.Summaries[base]
			baseMs := s.Mean[monitoring.ExecutionTime]
			pred, err := ratioModel.PredictRatios(s)
			if err != nil {
				return nil, err
			}
			vec := make([]float64, len(cfg.Features))
			for j, f := range cfg.Features {
				vec[j] = f.Extract(s)
			}
			scaled, err := scaler.Transform(vec)
			if err != nil {
				return nil, err
			}
			absPred, err := absNet.Predict(scaled)
			if err != nil {
				return nil, err
			}
			for j, m := range targets {
				truth, _ := row.ExecTimeMs(m)
				truths = append(truths, truth)
				ratioPreds = append(ratioPreds, pred[j]*baseMs)
				ap := absPred[j]
				if ap < 1e-3 {
					ap = 1e-3
				}
				absPreds = append(absPreds, ap)
			}
		}
	}

	res := &AblationTargetsResult{}
	if res.RatioMAPE, err = stats.MAPE(ratioPreds, truths); err != nil {
		return nil, err
	}
	if res.AbsoluteMAPE, err = stats.MAPE(absPreds, truths); err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints A1.
func (r *AblationTargetsResult) Render() string {
	t := newTable("target encoding", "CV MAPE on absolute times")
	t.addRow("ratios (paper §3.4)", pct(r.RatioMAPE))
	t.addRow("absolute times", pct(r.AbsoluteMAPE))
	return fmt.Sprintf("Ablation A1 — ratio targets vs absolute-time targets\n\n%s", t)
}

// AblationFeaturesResult compares the reduced six-metric feature set (F4)
// against all 25 raw mean metrics (F0) — extension A2.
type AblationFeaturesResult struct {
	F4 core.CVMetrics
	F0 core.CVMetrics
}

// AblationFeatures runs CV for both feature sets with matched budgets.
func AblationFeatures(ctx context.Context, lab *Lab, k int) (*AblationFeaturesResult, error) {
	ds, err := lab.Dataset(ctx)
	if err != nil {
		return nil, err
	}
	const base = platform.Mem256
	f4 := lab.modelConfig(base)
	f0 := f4
	f0.Features = features.MeanFeatures()

	res := &AblationFeaturesResult{}
	if res.F4, err = core.CrossValidate(ctx, ds, f4, k, 1, lab.Scale.Seed+37); err != nil {
		return nil, err
	}
	if res.F0, err = core.CrossValidate(ctx, ds, f0, k, 1, lab.Scale.Seed+37); err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints A2.
func (r *AblationFeaturesResult) Render() string {
	t := newTable("feature set", "MSE", "MAPE", "R2")
	t.addRow("F4-style reduced set (rates + std/CoV)",
		fmt.Sprintf("%.4f", r.F4.MSE), fmt.Sprintf("%.4f", r.F4.MAPE), fmt.Sprintf("%.4f", r.F4.R2))
	t.addRow("F0 (all 25 mean metrics)",
		fmt.Sprintf("%.4f", r.F0.MSE), fmt.Sprintf("%.4f", r.F0.MAPE), fmt.Sprintf("%.4f", r.F0.R2))
	return fmt.Sprintf("Ablation A2 — reduced feature set vs all raw metrics\n\n%s", t)
}

// AblationIncrementsResult probes the §5 limitation: interpolating the
// 64 MB-increment sizes from the six predicted anchors (extension A4).
type AblationIncrementsResult struct {
	// Functions analyzed.
	Functions int
	// ChangedSelection counts functions whose optimal size moved off the
	// six-size grid when 46 sizes were considered.
	ChangedSelection int
	// MeanExtraSavings is the mean S_total improvement from the finer grid
	// (non-negative by construction on interpolated curves).
	MeanExtraSavings float64
}

// AblationIncrements fits the BATCH-style polynomial through the model's
// six predicted times and optimizes over all 46 sizes.
func AblationIncrements(ctx context.Context, lab *Lab) (*AblationIncrementsResult, error) {
	const base = platform.Mem256
	const tradeoff = 0.75
	model, err := lab.Model(ctx, base)
	if err != nil {
		return nil, err
	}
	studies, err := lab.CaseStudies(ctx)
	if err != nil {
		return nil, err
	}
	pricing := lab.Pricing()

	res := &AblationIncrementsResult{}
	for _, cs := range studies {
		for _, row := range cs.Rows {
			pred, err := model.Predict(row.Summaries[base])
			if err != nil {
				return nil, err
			}
			// Coarse optimum over the six predicted sizes.
			coarse, err := optimizer.Optimize(pred, pricing, tradeoff)
			if err != nil {
				return nil, err
			}
			// Fit t(1/m) through the six anchors, degree 2 (the BATCH
			// interpolation the paper's §5 suggests).
			xs := make([]float64, 0, len(pred))
			ys := make([]float64, 0, len(pred))
			for _, m := range lab.Sizes() {
				xs = append(xs, 1/float64(m))
				ys = append(ys, pred[m])
			}
			coef, err := stats.PolyFit(xs, ys, 2)
			if err != nil {
				return nil, err
			}
			fine := make(map[platform.MemorySize]float64)
			for _, m := range platform.AllSizes64MB() {
				if t, ok := pred[m]; ok {
					fine[m] = t
					continue
				}
				t := stats.PolyEval(coef, 1/float64(m))
				if t < 1e-3 {
					t = 1e-3
				}
				fine[m] = t
			}
			fineRec, err := optimizer.Optimize(fine, pricing, tradeoff)
			if err != nil {
				return nil, err
			}
			res.Functions++
			if fineRec.Best != coarse.Best {
				res.ChangedSelection++
				// Compare S_total of the coarse choice inside the fine grid.
				var coarseTotal, fineTotal float64
				for _, o := range fineRec.Options {
					if o.Memory == coarse.Best {
						coarseTotal = o.STotal
					}
					if o.Memory == fineRec.Best {
						fineTotal = o.STotal
					}
				}
				if coarseTotal > 0 {
					res.MeanExtraSavings += 1 - fineTotal/coarseTotal
				}
			}
		}
	}
	if res.ChangedSelection > 0 {
		res.MeanExtraSavings /= float64(res.ChangedSelection)
	}
	return res, nil
}

// Render prints A4.
func (r *AblationIncrementsResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation A4 — 64MB-increment interpolation (46 sizes vs 6)\n\n")
	t := newTable("metric", "value")
	t.addRow("functions analyzed", fmt.Sprintf("%d", r.Functions))
	t.addRow("selection moved off 6-size grid", fmt.Sprintf("%d", r.ChangedSelection))
	t.addRow("mean S_total improvement when moved", pct(r.MeanExtraSavings))
	b.WriteString(t.String())
	return b.String()
}
