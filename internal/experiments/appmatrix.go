package experiments

import (
	"context"
	"fmt"
	"strings"

	"sizeless/internal/apps"
	"sizeless/internal/dag"
	"sizeless/internal/harness"
	"sizeless/internal/platform"
	"sizeless/internal/runtime"
)

// AppPlanCell is one application × provider entry of the app matrix: the
// three-way planning comparison over that provider's grid and pricing.
type AppPlanCell struct {
	App      string
	Provider string
	// Plans is the shared-normalization comparison: per-function-optimal,
	// application-optimal (sizes only), application-optimal (sizes +
	// fusion).
	Plans *dag.Comparison
}

// AppMatrixResult is the headline application-level table: per-function
// vs application-level planning across the case-study apps × providers.
type AppMatrixResult struct {
	Providers []string
	Apps      []string
	Tradeoff  float64
	Cells     []AppPlanCell
}

// Cell returns the app × provider cell, or nil if absent.
func (r *AppMatrixResult) Cell(app, provider string) *AppPlanCell {
	for i := range r.Cells {
		if r.Cells[i].App == app && r.Cells[i].Provider == provider {
			return &r.Cells[i]
		}
	}
	return nil
}

// AppMatrix measures every case-study application on each provider and
// plans it three ways under the §3.5 tradeoff objective lifted to the
// application level: sizing each function independently (the paper's
// optimizer), jointly sizing all functions under the end-to-end
// latency/cost model, and jointly choosing sizes plus fusion decisions
// over the app's DAG. Functions are measured at the provider's grid in a
// drift-adjusted environment (one repetition — the planner consumes mean
// execution times); planning replays seeded arrival schedules through the
// warm-pool cold-start model, so the whole matrix is deterministic per
// scale seed. Defaults to the three built-in providers when none are
// given.
func AppMatrix(ctx context.Context, lab *Lab, providers ...platform.Provider) (*AppMatrixResult, error) {
	if len(providers) == 0 {
		providers = []platform.Provider{
			platform.AWSLambda(), platform.GCPCloudFunctions(), platform.AzureFunctions(),
		}
	}
	scale := lab.Scale
	res := &AppMatrixResult{Tradeoff: dag.DefaultTradeoff}
	for _, p := range providers {
		res.Providers = append(res.Providers, p.Name())
	}
	for _, app := range apps.All() {
		res.Apps = append(res.Apps, app.Name)
	}

	for _, p := range providers {
		sizes := p.DefaultSizes()
		for _, app := range apps.All() {
			env := runtime.NewEnvFor(p.Platform())
			env.Drift = app.Drift
			ds, err := harness.BuildDataset(ctx, harness.Options{
				Env:      env,
				Rate:     scale.CaseRate,
				Duration: scale.CaseDuration,
				Sizes:    sizes,
				Seed:     scale.Seed + 7,
				Workers:  scale.Workers,
			}, app.Functions)
			if err != nil {
				return nil, fmt.Errorf("experiments: app matrix measuring %s on %s: %w", app.Name, p.Name(), err)
			}
			times := make(map[string]map[platform.MemorySize]float64, len(ds.Rows))
			for _, row := range ds.Rows {
				times[row.FunctionID] = row.ExecTimes()
			}
			g, err := app.Graph(times)
			if err != nil {
				return nil, err
			}
			cmp, err := dag.Compare(ctx, g, dag.Config{
				Platform: p.Platform(),
				Sizes:    sizes,
				Rate:     app.Rate,
				Seed:     scale.Seed,
				Workers:  scale.Workers,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: app matrix planning %s on %s: %w", app.Name, p.Name(), err)
			}
			res.Cells = append(res.Cells, AppPlanCell{App: app.Name, Provider: p.Name(), Plans: cmp})
		}
	}
	return res, nil
}

// delta formats a relative change of got vs base (negative = improvement).
func delta(base, got float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (got-base)/base*100)
}

// Render prints one table per provider: the per-function baseline's
// absolute end-to-end cost/latency and each application-level plan's
// relative change, plus how many units the fused plan deploys.
func (r *AppMatrixResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "App matrix — per-function vs application-level planning (t = %.2f)\n", r.Tradeoff)
	b.WriteString("cost is USD per application request; latency the DAG critical path\n\n")
	for _, prov := range r.Providers {
		fmt.Fprintf(&b, "%s\n", prov)
		t := newTable("app", "perfn cost", "perfn lat",
			"app-sizes cost", "app-sizes lat", "fused cost", "fused lat", "units", "inv/req")
		for _, app := range r.Apps {
			cell := r.Cell(app, prov)
			if cell == nil {
				continue
			}
			pf, so, fu := cell.Plans.PerFunction, cell.Plans.SizesOnly, cell.Plans.Fused
			t.addRow(app,
				fmt.Sprintf("%.3g", pf.CostPerReq), ms(pf.LatencyMs),
				delta(pf.CostPerReq, so.CostPerReq), delta(pf.LatencyMs, so.LatencyMs),
				delta(pf.CostPerReq, fu.CostPerReq), delta(pf.LatencyMs, fu.LatencyMs),
				fmt.Sprintf("%d(%d fused)", len(fu.Groups), fu.FusedUnits()),
				fmt.Sprintf("%.0f→%.0f", pf.InvocationsPerReq, fu.InvocationsPerReq),
			)
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}
