package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"sizeless/internal/dataset"
	"sizeless/internal/platform"
)

// PredictionErrorTable is one of Tables 4–7: the relative prediction error
// per function and target size for one application, base 256 MB.
type PredictionErrorTable struct {
	App  string
	Base platform.MemorySize
	// Targets are the five predicted sizes in ascending order.
	Targets []platform.MemorySize
	// Errors maps function name → per-target relative error (fraction).
	Errors map[string][]float64
	// FunctionOrder preserves the app's declaration order.
	FunctionOrder []string
	// AllFunctions is the per-target mean over functions.
	AllFunctions []float64
	// Mean is the grand mean relative error for this app.
	Mean float64
}

// PredictionErrorResult reproduces Tables 4–7 plus the cross-application
// average (the paper's 15.3% headline).
type PredictionErrorResult struct {
	Tables []PredictionErrorTable
	// OverallMean is the grand mean across all apps/functions/targets.
	OverallMean float64
}

// PredictionErrors predicts every case-study function from base-256
// monitoring data and compares against the measured execution times.
func PredictionErrors(ctx context.Context, lab *Lab) (*PredictionErrorResult, error) {
	const base = platform.Mem256
	model, err := lab.Model(ctx, base)
	if err != nil {
		return nil, err
	}
	studies, err := lab.CaseStudies(ctx)
	if err != nil {
		return nil, err
	}

	res := &PredictionErrorResult{}
	var grandSum float64
	var grandN int
	for _, cs := range studies {
		targets := make([]platform.MemorySize, 0, 5)
		for _, m := range lab.Sizes() {
			if m != base {
				targets = append(targets, m)
			}
		}
		tbl := PredictionErrorTable{
			App:     cs.App.Name,
			Base:    base,
			Targets: targets,
			Errors:  make(map[string][]float64, len(cs.App.Functions)),
		}
		perTargetSum := make([]float64, len(targets))
		for _, row := range cs.Rows {
			pred, err := model.Predict(row.Summaries[base])
			if err != nil {
				return nil, fmt.Errorf("experiments: predicting %s/%s: %w", cs.App.Name, row.FunctionID, err)
			}
			measured := row.ExecTimes()
			errs := make([]float64, len(targets))
			for i, m := range targets {
				errs[i] = math.Abs(pred[m]-measured[m]) / measured[m]
				perTargetSum[i] += errs[i]
				grandSum += errs[i]
				grandN++
				tbl.Mean += errs[i]
			}
			tbl.Errors[row.FunctionID] = errs
			tbl.FunctionOrder = append(tbl.FunctionOrder, row.FunctionID)
		}
		tbl.AllFunctions = make([]float64, len(targets))
		for i := range targets {
			tbl.AllFunctions[i] = perTargetSum[i] / float64(len(cs.App.Functions))
		}
		tbl.Mean /= float64(len(cs.App.Functions) * len(targets))
		res.Tables = append(res.Tables, tbl)
	}
	if grandN > 0 {
		res.OverallMean = grandSum / float64(grandN)
	}
	return res, nil
}

// Render prints Tables 4–7 in the paper's layout (percent errors).
func (r *PredictionErrorResult) Render() string {
	var b strings.Builder
	tableNo := 4
	for _, tbl := range r.Tables {
		fmt.Fprintf(&b, "Table %d — relative prediction error (%%) from base %v, %s\n\n",
			tableNo, tbl.Base, tbl.App)
		header := []string{"function"}
		for _, m := range tbl.Targets {
			header = append(header, m.String())
		}
		t := newTable(header...)
		for _, fn := range tbl.FunctionOrder {
			row := []string{fn}
			for _, e := range tbl.Errors[fn] {
				row = append(row, fmt.Sprintf("%.1f", e*100))
			}
			t.addRow(row...)
		}
		all := []string{"All functions"}
		for _, e := range tbl.AllFunctions {
			all = append(all, fmt.Sprintf("%.1f", e*100))
		}
		t.addRow(all...)
		fmt.Fprintf(&b, "%s\napp mean: %.1f%%\n\n", t, tbl.Mean*100)
		tableNo++
	}
	fmt.Fprintf(&b, "overall average prediction error: %.1f%% (paper: 15.3%%)\n", r.OverallMean*100)
	return b.String()
}

// CaseStudyPrediction is one Fig. 6 panel: measured vs per-base predictions
// for one function.
type CaseStudyPrediction struct {
	App      string
	Function string
	// MeasuredMs maps size → measured mean execution time.
	MeasuredMs map[platform.MemorySize]float64
	// PredictedMs maps base size → (target size → prediction).
	PredictedMs map[platform.MemorySize]map[platform.MemorySize]float64
}

// CaseStudyPredictionsResult reproduces Fig. 6 (two functions per app).
type CaseStudyPredictionsResult struct {
	// Sizes is the memory grid the panels cover (the lab provider's grid).
	Sizes  []platform.MemorySize
	Panels []CaseStudyPrediction
}

// CaseStudyPredictions predicts selected functions from every base size.
// With nil selections, it uses the paper's eight Fig. 6 functions.
func CaseStudyPredictions(ctx context.Context, lab *Lab, selections map[string][]string) (*CaseStudyPredictionsResult, error) {
	if selections == nil {
		selections = map[string][]string{
			"airline-booking":    {"CreateCharge", "NotifyBooking"},
			"facial-recognition": {"PersistMetadata", "FaceSearch"},
			"event-processing":   {"EventInserter", "IngestEvent"},
			"hello-retail":       {"EventWriter", "ProductCatalogApi"},
		}
	}
	studies, err := lab.CaseStudies(ctx)
	if err != nil {
		return nil, err
	}
	res := &CaseStudyPredictionsResult{Sizes: lab.Sizes()}
	for _, cs := range studies {
		wanted := selections[cs.App.Name]
		for _, fnName := range wanted {
			var row *dataset.Row
			for i := range cs.Rows {
				if cs.Rows[i].FunctionID == fnName {
					row = &cs.Rows[i]
					break
				}
			}
			if row == nil {
				return nil, fmt.Errorf("experiments: fig6: %s has no function %q", cs.App.Name, fnName)
			}
			panel := CaseStudyPrediction{
				App:         cs.App.Name,
				Function:    fnName,
				MeasuredMs:  row.ExecTimes(),
				PredictedMs: make(map[platform.MemorySize]map[platform.MemorySize]float64, 6),
			}
			for _, base := range lab.Sizes() {
				model, err := lab.Model(ctx, base)
				if err != nil {
					return nil, err
				}
				pred, err := model.Predict(row.Summaries[base])
				if err != nil {
					return nil, fmt.Errorf("experiments: fig6 %s base %v: %w", fnName, base, err)
				}
				panel.PredictedMs[base] = pred
			}
			res.Panels = append(res.Panels, panel)
		}
	}
	return res, nil
}

// Render prints each Fig. 6 panel as measured plus one prediction row per
// base size.
func (r *CaseStudyPredictionsResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 6 — measured vs predicted execution time (ms)\n\n")
	for _, panel := range r.Panels {
		fmt.Fprintf(&b, "%s — %s\n", panel.App, panel.Function)
		header := []string{"series"}
		for _, m := range r.Sizes {
			header = append(header, m.String())
		}
		t := newTable(header...)
		row := []string{"measured"}
		for _, m := range r.Sizes {
			row = append(row, fmt.Sprintf("%.1f", panel.MeasuredMs[m]))
		}
		t.addRow(row...)
		bases := make([]platform.MemorySize, 0, len(panel.PredictedMs))
		for base := range panel.PredictedMs {
			bases = append(bases, base)
		}
		sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
		for _, base := range bases {
			row := []string{fmt.Sprintf("pred@%v", base)}
			for _, m := range r.Sizes {
				row = append(row, fmt.Sprintf("%.1f", panel.PredictedMs[base][m]))
			}
			t.addRow(row...)
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}
