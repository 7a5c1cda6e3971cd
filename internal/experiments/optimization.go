package experiments

import (
	"context"
	"fmt"
	"strings"

	"sizeless/internal/optimizer"
	"sizeless/internal/platform"
)

// SelectionRankingResult reproduces Fig. 7: for each tradeoff parameter,
// how many functions had the 1st/2nd/.../6th best memory size selected.
type SelectionRankingResult struct {
	Tradeoffs []float64
	// Counts maps tradeoff → app name → rank histogram (index 0 = best).
	Counts map[float64]map[string][]int
	// OptimalShare and SecondShare are the aggregate fractions across all
	// tradeoffs (the paper reports 79.0% / 12.3%).
	OptimalShare float64
	SecondShare  float64
}

// SelectionRanking applies the §3.5 optimizer to model predictions for all
// 27 case-study functions and ranks the selections against the measured
// optimum, for t ∈ {0.75, 0.5, 0.25}.
func SelectionRanking(ctx context.Context, lab *Lab) (*SelectionRankingResult, error) {
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

	res := &SelectionRankingResult{
		Tradeoffs: []float64{0.75, 0.5, 0.25},
		Counts:    make(map[float64]map[string][]int),
	}
	totalSelections, optimal, second := 0, 0, 0
	for _, t := range res.Tradeoffs {
		perApp := make(map[string][]int)
		for _, cs := range studies {
			hist := make([]int, len(lab.Sizes()))
			for _, row := range cs.Rows {
				pred, err := model.Predict(row.Summaries[base])
				if err != nil {
					return nil, fmt.Errorf("experiments: fig7 %s: %w", row.FunctionID, err)
				}
				rec, err := optimizer.Optimize(pred, pricing, t)
				if err != nil {
					return nil, err
				}
				rank, err := optimizer.Rank(rec.Best, row.ExecTimes(), pricing, t)
				if err != nil {
					return nil, err
				}
				hist[rank-1]++
				totalSelections++
				switch rank {
				case 1:
					optimal++
				case 2:
					second++
				}
			}
			perApp[cs.App.Name] = hist
		}
		res.Counts[t] = perApp
	}
	if totalSelections > 0 {
		res.OptimalShare = float64(optimal) / float64(totalSelections)
		res.SecondShare = float64(second) / float64(totalSelections)
	}
	return res, nil
}

// Render prints the Fig. 7 histograms.
func (r *SelectionRankingResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 7 — rank of the selected memory size (1 = optimal)\n\n")
	for _, tradeoff := range r.Tradeoffs {
		fmt.Fprintf(&b, "t = %.2f\n", tradeoff)
		t := newTable("app", "best", "2nd", "3rd", "4th", "5th", "6th")
		perApp := r.Counts[tradeoff]
		for _, app := range []string{"airline-booking", "facial-recognition", "event-processing", "hello-retail"} {
			hist := perApp[app]
			row := []string{app}
			for _, c := range hist {
				row = append(row, fmt.Sprintf("%d", c))
			}
			t.addRow(row...)
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "optimal selected: %s (paper: 79.0%%), second-best: %s (paper: 12.3%%)\n",
		pct(r.OptimalShare), pct(r.SecondShare))
	return b.String()
}

// SavingsRow is one Table 8 cell pair.
type SavingsRow struct {
	App         string
	CostSavings map[float64]float64 // tradeoff → fraction
	Speedup     map[float64]float64
}

// SavingsResult reproduces Table 8.
type SavingsResult struct {
	Tradeoffs []float64
	Rows      []SavingsRow
	// All aggregates across applications.
	All SavingsRow
}

// SavingsSpeedup quantifies the benefit of switching each function from
// the monitored base size (256 MB) to the optimizer's selection, per
// tradeoff parameter, averaged per application (Table 8).
func SavingsSpeedup(ctx context.Context, lab *Lab) (*SavingsResult, error) {
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

	res := &SavingsResult{Tradeoffs: []float64{0.75, 0.5, 0.25}}
	res.All = SavingsRow{
		App:         "All Applications",
		CostSavings: make(map[float64]float64),
		Speedup:     make(map[float64]float64),
	}
	totalFns := 0
	for _, cs := range studies {
		row := SavingsRow{
			App:         cs.App.Name,
			CostSavings: make(map[float64]float64),
			Speedup:     make(map[float64]float64),
		}
		for _, tradeoff := range res.Tradeoffs {
			var cost, speed float64
			for _, row := range cs.Rows {
				pred, err := model.Predict(row.Summaries[base])
				if err != nil {
					return nil, err
				}
				rec, err := optimizer.Optimize(pred, pricing, tradeoff)
				if err != nil {
					return nil, err
				}
				ben, err := optimizer.Benefits(row.ExecTimes(), pricing, base, rec.Best)
				if err != nil {
					return nil, err
				}
				cost += ben.CostSavings
				speed += ben.Speedup
				res.All.CostSavings[tradeoff] += ben.CostSavings
				res.All.Speedup[tradeoff] += ben.Speedup
			}
			n := float64(len(cs.App.Functions))
			row.CostSavings[tradeoff] = cost / n
			row.Speedup[tradeoff] = speed / n
		}
		totalFns += len(cs.App.Functions)
		res.Rows = append(res.Rows, row)
	}
	for _, tradeoff := range res.Tradeoffs {
		res.All.CostSavings[tradeoff] /= float64(totalFns)
		res.All.Speedup[tradeoff] /= float64(totalFns)
	}
	return res, nil
}

// Render prints Table 8.
func (r *SavingsResult) Render() string {
	header := []string{"application"}
	for _, t := range r.Tradeoffs {
		header = append(header, fmt.Sprintf("t=%.2f cost", t), fmt.Sprintf("t=%.2f speed", t))
	}
	t := newTable(header...)
	addRow := func(row SavingsRow) {
		cells := []string{row.App}
		for _, tr := range r.Tradeoffs {
			cells = append(cells, pct(row.CostSavings[tr]), pct(row.Speedup[tr]))
		}
		t.addRow(cells...)
	}
	for _, row := range r.Rows {
		addRow(row)
	}
	addRow(r.All)
	return fmt.Sprintf("Table 8 — cost savings and speedup vs the monitored base size\n\n%s", t)
}
