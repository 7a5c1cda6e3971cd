// Command benchreport regenerates every table and figure of the paper's
// evaluation (plus the DESIGN.md ablations) and prints them in the paper's
// row/series layout.
//
// Usage:
//
//	benchreport -scale small -run all
//	benchreport -scale medium -run table3,fig7,table8
//	benchreport -scale full -run fig1          # paper-scale, hours of CPU
//
// Experiment ids: fig1 fig3 fig4 fig5 table2 table3 fig6 table4-7 fig7
// table8 baselines ablation-targets ablation-features ablation-increments
// transfer transfer-matrix scenario-matrix app-matrix.
//
// "transfer-matrix" goes beyond the paper: it trains a model per built-in
// provider and scores every source→target pair under the stale, fine-tuned
// (Predictor.Adapt), and from-scratch strategies — the cross-provider
// portability quantification of the §5 adaptation workflow.
//
// "scenario-matrix" runs the non-stationary scenario lab: stationary,
// diurnal, spiky, spiky-with-injected-shift, sparse, and trace-replay
// traffic sampled as non-homogeneous Poisson processes, streamed through
// the internal/warmpool keep-alive lifecycle (the one the harness
// deployments use) for cold starts, and scored on drift-detector
// false positives and latency, recomputation-policy cost regret, and
// per-provider cold-start billing overhead (the trajectory behind
// BENCH_scenario.json).
//
// "app-matrix" goes beyond the paper's per-function scope: it measures the
// four case-study applications on each built-in provider (the same
// internal/warmpool lifecycle decides their cold starts and the planner's
// cold-start exposure) and plans every app three ways —
// per-function-optimal sizes (the paper's optimizer),
// application-optimal sizes under the end-to-end DAG latency/cost model,
// and application-optimal sizes plus function fusion — reporting the cost
// and critical-path latency deltas of application-aware planning.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"sizeless/internal/experiments"
	"sizeless/internal/platform"
)

// renderable is what every experiment result provides.
type renderable interface{ Render() string }

// experimentRunner produces one report section. Every runner takes the
// report's context so ^C stops a multi-hour campaign between experiments
// and inside the harness fan-outs.
type experimentRunner struct {
	id  string
	run func(ctx context.Context, lab *experiments.Lab) (renderable, error)
}

func runners() []experimentRunner {
	return []experimentRunner{
		{"fig1", func(ctx context.Context, lab *experiments.Lab) (renderable, error) {
			return experiments.MotivatingExample(ctx, lab)
		}},
		{"fig3", func(ctx context.Context, lab *experiments.Lab) (renderable, error) {
			return experiments.StabilityAnalysis(ctx, lab)
		}},
		{"fig4", func(ctx context.Context, lab *experiments.Lab) (renderable, error) {
			return experiments.FeatureSelection(ctx, lab, platform.Mem256, 8, 8, 8)
		}},
		{"fig5", func(ctx context.Context, lab *experiments.Lab) (renderable, error) {
			return experiments.PartialDependencePlots(ctx, lab, 9)
		}},
		{"table2", func(ctx context.Context, lab *experiments.Lab) (renderable, error) {
			return experiments.GridSearchTable(ctx, lab, nil, 3)
		}},
		{"table3", func(ctx context.Context, lab *experiments.Lab) (renderable, error) {
			return experiments.CrossValidationTable(ctx, lab, 5, 1)
		}},
		{"fig6", func(ctx context.Context, lab *experiments.Lab) (renderable, error) {
			return experiments.CaseStudyPredictions(ctx, lab, nil)
		}},
		{"table4-7", func(ctx context.Context, lab *experiments.Lab) (renderable, error) {
			return experiments.PredictionErrors(ctx, lab)
		}},
		{"fig7", func(ctx context.Context, lab *experiments.Lab) (renderable, error) {
			return experiments.SelectionRanking(ctx, lab)
		}},
		{"table8", func(ctx context.Context, lab *experiments.Lab) (renderable, error) {
			return experiments.SavingsSpeedup(ctx, lab)
		}},
		{"baselines", func(ctx context.Context, lab *experiments.Lab) (renderable, error) {
			return experiments.BaselineComparison(ctx, lab)
		}},
		{"ablation-targets", func(ctx context.Context, lab *experiments.Lab) (renderable, error) {
			return experiments.AblationTargets(ctx, lab, 3)
		}},
		{"ablation-features", func(ctx context.Context, lab *experiments.Lab) (renderable, error) {
			return experiments.AblationFeatures(ctx, lab, 3)
		}},
		{"ablation-increments", func(ctx context.Context, lab *experiments.Lab) (renderable, error) {
			return experiments.AblationIncrements(ctx, lab)
		}},
		{"transfer", func(ctx context.Context, lab *experiments.Lab) (renderable, error) {
			return experiments.TransferLearning(ctx, lab)
		}},
		{"transfer-matrix", func(ctx context.Context, lab *experiments.Lab) (renderable, error) {
			return experiments.TransferMatrix(ctx, lab)
		}},
		{"scenario-matrix", func(ctx context.Context, lab *experiments.Lab) (renderable, error) {
			return experiments.ScenarioMatrix(ctx, lab)
		}},
		{"app-matrix", func(ctx context.Context, lab *experiments.Lab) (renderable, error) {
			return experiments.AppMatrix(ctx, lab)
		}},
	}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	scaleName := fs.String("scale", "small", "experiment scale: small, medium, or full")
	runList := fs.String("run", "all", "comma-separated experiment ids, or 'all'")
	providerName := fs.String("provider", platform.AWSLambdaName,
		"platform provider the experiments run on (see 'sizeless providers')")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scale, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		return err
	}
	provider, err := platform.LookupProvider(*providerName)
	if err != nil {
		return err
	}

	wanted := map[string]bool{}
	if *runList != "all" {
		for _, id := range strings.Split(*runList, ",") {
			wanted[strings.TrimSpace(id)] = true
		}
		for id := range wanted {
			if !knownID(id) {
				return fmt.Errorf("unknown experiment id %q", id)
			}
		}
	}

	lab := experiments.NewLabFor(scale, provider)
	fmt.Fprintf(out, "Sizeless reproduction report — scale %q, provider %q, seed %d\n", scale.Name, provider.Name(), scale.Seed)
	fmt.Fprintf(out, "generated %s\n\n", time.Now().UTC().Format(time.RFC3339))

	for _, r := range runners() {
		if len(wanted) > 0 && !wanted[r.id] {
			continue
		}
		start := time.Now()
		res, err := r.run(ctx, lab)
		if err != nil {
			return fmt.Errorf("%s: %w", r.id, err)
		}
		fmt.Fprintf(out, "================ %s (%v) ================\n\n", r.id, time.Since(start).Round(time.Millisecond))
		fmt.Fprintln(out, res.Render())
	}
	return nil
}

func knownID(id string) bool {
	for _, r := range runners() {
		if r.id == id {
			return true
		}
	}
	return false
}
