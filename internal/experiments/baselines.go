package experiments

import (
	"context"
	"fmt"
	"strings"

	"sizeless/internal/baselines"
	"sizeless/internal/optimizer"
	"sizeless/internal/platform"
)

// BaselineComparisonRow summarizes one approach over all 27 functions.
type BaselineComparisonRow struct {
	Name string
	// MeasurementsPerFunction is the number of dedicated performance tests
	// each approach needs per function (Sizeless: 0 — it reuses production
	// monitoring from one size).
	MeasurementsPerFunction float64
	// OptimalShare is the fraction of functions where the approach picked
	// the measured optimum.
	OptimalShare float64
	// MeanRegret is the mean S_total(selected)/S_total(optimal) − 1.
	MeanRegret float64
}

// BaselineComparisonResult is the A3 extension experiment: Sizeless vs
// Power Tuning vs COSE vs BATCH on the case-study functions.
type BaselineComparisonResult struct {
	Tradeoff float64
	Rows     []BaselineComparisonRow
}

// BaselineComparison runs all four approaches on every case-study function
// at the paper-recommended tradeoff t = 0.75.
func BaselineComparison(ctx context.Context, lab *Lab) (*BaselineComparisonResult, error) {
	const tradeoff = 0.75
	const base = platform.Mem256
	model, err := lab.Model(ctx, base)
	if err != nil {
		return nil, err
	}
	studies, err := lab.CaseStudies(ctx)
	if err != nil {
		return nil, err
	}
	pricing := lab.Pricing()
	resModel := lab.Provider().Platform().Resources
	sizes := lab.Sizes()

	type agg struct {
		meas    float64
		optimal int
		regret  float64
		n       int
	}
	aggs := map[string]*agg{
		"sizeless":     {},
		"power-tuning": {},
		"cose":         {},
		"batch":        {},
	}

	score := func(name string, selected platform.MemorySize, measured map[platform.MemorySize]float64, measurements int) error {
		a := aggs[name]
		a.n++
		a.meas += float64(measurements)
		rank, err := optimizer.Rank(selected, measured, pricing, tradeoff)
		if err != nil {
			return err
		}
		if rank == 1 {
			a.optimal++
		}
		rec, err := optimizer.Optimize(measured, pricing, tradeoff)
		if err != nil {
			return err
		}
		var selTotal, bestTotal float64
		for _, o := range rec.Options {
			if o.Memory == selected {
				selTotal = o.STotal
			}
			if o.Memory == rec.Best {
				bestTotal = o.STotal
			}
		}
		if bestTotal > 0 {
			a.regret += selTotal/bestTotal - 1
		}
		return nil
	}

	for _, cs := range studies {
		for _, row := range cs.Rows {
			measured := row.ExecTimes()
			table := baselines.TableMeasurer(measured)

			// Sizeless: predictions from the single monitored size; no
			// dedicated performance tests.
			pred, err := model.Predict(row.Summaries[base])
			if err != nil {
				return nil, err
			}
			rec, err := optimizer.Optimize(pred, pricing, tradeoff)
			if err != nil {
				return nil, err
			}
			if err := score("sizeless", rec.Best, measured, 0); err != nil {
				return nil, err
			}

			pt, err := baselines.PowerTuning(table, sizes, pricing, tradeoff)
			if err != nil {
				return nil, err
			}
			if err := score("power-tuning", pt.Recommendation.Best, measured, pt.MeasurementsUsed); err != nil {
				return nil, err
			}

			cose, err := baselines.COSE(table, sizes, &resModel, pricing, tradeoff, 4)
			if err != nil {
				return nil, err
			}
			if err := score("cose", cose.Recommendation.Best, measured, cose.MeasurementsUsed); err != nil {
				return nil, err
			}

			batch, err := baselines.BATCH(table, sizes, pricing, tradeoff, nil)
			if err != nil {
				return nil, err
			}
			if err := score("batch", batch.Recommendation.Best, measured, batch.MeasurementsUsed); err != nil {
				return nil, err
			}
		}
	}

	res := &BaselineComparisonResult{Tradeoff: tradeoff}
	for _, name := range []string{"sizeless", "power-tuning", "cose", "batch"} {
		a := aggs[name]
		if a.n == 0 {
			return nil, fmt.Errorf("experiments: baseline %s scored no functions", name)
		}
		res.Rows = append(res.Rows, BaselineComparisonRow{
			Name:                    name,
			MeasurementsPerFunction: a.meas / float64(a.n),
			OptimalShare:            float64(a.optimal) / float64(a.n),
			MeanRegret:              a.regret / float64(a.n),
		})
	}
	return res, nil
}

// Render prints the comparison.
func (r *BaselineComparisonResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Baseline comparison (t = %.2f) — measurements needed vs selection quality\n\n", r.Tradeoff)
	t := newTable("approach", "perf tests/function", "optimal selected", "mean regret")
	for _, row := range r.Rows {
		t.addRow(row.Name,
			fmt.Sprintf("%.1f", row.MeasurementsPerFunction),
			pct(row.OptimalShare),
			fmt.Sprintf("%.3f", row.MeanRegret))
	}
	b.WriteString(t.String())
	return b.String()
}
