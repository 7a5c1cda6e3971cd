// Command sizeless is the end-user CLI for the Sizeless pipeline:
//
//	sizeless train -dataset dataset.csv -base 256 -out model.json
//	sizeless evaluate -dataset dataset.csv -base 256
//	sizeless recommend -model model.json -dataset dataset.csv -function synthetic-0007 -t 0.75
//	sizeless recommend ... -provider gcp-cloudfunctions
//	sizeless adapt -model model.json -dataset gcp-small.csv -provider gcp-cloudfunctions -out adapted.json
//	sizeless serve -model model.json -addr :8080 -snapshot fleet.snap
//	sizeless plan -app hello-retail -provider aws-lambda -t 0.75
//	sizeless demo -provider azure-functions
//	sizeless providers
//
// "train" fits the multi-target regression model on a dataset produced by
// cmd/harness. "evaluate" reports cross-validated model quality (the
// Table 3 metrics). "recommend" predicts all memory sizes for one monitored
// function and prints the §3.5 recommendation under the selected provider's
// pricing. "adapt" is the §5 migration workflow: it fine-tunes a saved
// model on a small dataset measured on the target platform and writes an
// adapted model file bound to that provider (pass -eval test.csv to
// quantify stale vs adapted accuracy on a held-out target dataset, and
// -patience N to early-stop the fine-tune on a validation split instead of
// burning the whole epoch budget — the guard against overfitting tiny
// adaptation datasets). "train" and "adapt" both honour -patience/-valsplit.
// "serve" runs the fleet-recommendation daemon: an HTTP API over the sharded
// recommender service with bounded ingest queues (429 + Retry-After under
// saturation), periodic + shutdown fleet snapshots restored on restart, and
// an optional drift-triggered auto-adaptation loop (-adapt-dataset). "plan"
// is application-aware sizing: it measures one case-study application's
// functions across the provider's grid and plans the whole app three ways —
// per-function-optimal sizes (the paper's optimizer), jointly optimal sizes
// under the end-to-end DAG model, and jointly optimal sizes plus function
// fusion — printing each plan's deployment units, end-to-end cost per
// request, and critical-path latency. "demo" runs the whole pipeline
// end-to-end at a small scale on the selected provider. "providers" lists
// the registered platforms.
//
// Every subcommand honours Ctrl-C and SIGTERM: measurement campaigns and
// training stop at the next experiment/epoch boundary, and the serve
// daemon drains its queues and writes a final snapshot before exiting —
// the signal a process supervisor sends is the graceful-shutdown path.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sizeless"
	"sizeless/internal/apps"
	"sizeless/internal/core"
	"sizeless/internal/dag"
	"sizeless/internal/dataset"
	"sizeless/internal/harness"
	"sizeless/internal/monitoring"
	"sizeless/internal/platform"
	"sizeless/internal/runtime"
	"sizeless/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sizeless:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: sizeless <train|evaluate|recommend|adapt|serve|plan|demo|providers> [flags]")
	}
	switch args[0] {
	case "plan":
		return cmdPlan(ctx, os.Stdout, args[1:])
	case "train":
		return cmdTrain(ctx, args[1:])
	case "evaluate":
		return cmdEvaluate(ctx, args[1:])
	case "recommend":
		return cmdRecommend(ctx, args[1:])
	case "adapt":
		return cmdAdapt(ctx, args[1:])
	case "serve":
		return cmdServe(ctx, args[1:])
	case "demo":
		return cmdDemo(ctx, args[1:])
	case "providers":
		return cmdProviders(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func loadDataset(path string) (*sizeless.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadCSV(f)
}

// parseBase validates the -base flag against the dataset's own memory
// grid: the trainable bases are exactly the measured sizes, whatever
// provider's grid the dataset was collected on.
func parseBase(mb int, ds *sizeless.Dataset) (sizeless.MemorySize, error) {
	base := platform.MemorySize(mb)
	if base <= 0 {
		return 0, fmt.Errorf("invalid base memory size %d", mb)
	}
	for _, m := range ds.Sizes {
		if m == base {
			return base, nil
		}
	}
	return 0, fmt.Errorf("base %v not among the dataset's measured sizes %v", base, ds.Sizes)
}

func cmdProviders(args []string) error {
	fs := flag.NewFlagSet("providers", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, name := range sizeless.Providers() {
		p, err := sizeless.ProviderByName(name)
		if err != nil {
			return err
		}
		fmt.Printf("%-22s %s\n", name, p.Description())
	}
	return nil
}

func cmdTrain(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	dsPath := fs.String("dataset", "dataset.csv", "training dataset CSV (from cmd/harness)")
	baseMB := fs.Int("base", 256, "monitored base memory size (MB)")
	epochs := fs.Int("epochs", 200, "training epoch budget")
	patience := fs.Int("patience", 0, "early stopping: stop after this many epochs without validation improvement (0 = train the full budget)")
	valSplit := fs.Float64("valsplit", 0, "validation split fraction for early stopping (0 = default 0.2 when -patience is set)")
	out := fs.String("out", "model.json", "output model path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := loadDataset(*dsPath)
	if err != nil {
		return err
	}
	base, err := parseBase(*baseMB, ds)
	if err != nil {
		return err
	}
	opts := []sizeless.Option{sizeless.WithBase(base), sizeless.WithEpochs(*epochs)}
	if *patience > 0 {
		opts = append(opts, sizeless.WithEarlyStopping(*patience))
	}
	if *valSplit != 0 {
		opts = append(opts, sizeless.WithValidationSplit(*valSplit))
	}
	start := time.Now()
	pred, err := sizeless.TrainPredictor(ctx, ds, opts...)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pred.Save(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trained on %d functions (base %v) in %v → %s\n",
		len(ds.Rows), base, time.Since(start).Round(time.Millisecond), *out)
	return nil
}

func cmdEvaluate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("evaluate", flag.ContinueOnError)
	dsPath := fs.String("dataset", "dataset.csv", "dataset CSV")
	baseMB := fs.Int("base", 256, "base memory size (MB)")
	folds := fs.Int("folds", 5, "cross-validation folds")
	iters := fs.Int("iterations", 1, "cross-validation iterations")
	epochs := fs.Int("epochs", 200, "training epoch budget")
	patience := fs.Int("patience", 0, "early stopping inside each fold (0 = train the full budget)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := loadDataset(*dsPath)
	if err != nil {
		return err
	}
	base, err := parseBase(*baseMB, ds)
	if err != nil {
		return err
	}
	cfg := core.DefaultModelConfig(base)
	cfg.Sizes = ds.Sizes
	cfg.Epochs = *epochs
	cfg.Patience = *patience
	m, err := core.CrossValidate(ctx, ds, cfg, *folds, *iters, 1)
	if err != nil {
		return err
	}
	fmt.Printf("base=%v folds=%d iterations=%d\n", base, *folds, *iters)
	fmt.Printf("MSE=%.4f MAPE=%.4f R2=%.4f ExpVar=%.4f\n", m.MSE, m.MAPE, m.R2, m.ExpVar)
	return nil
}

func cmdRecommend(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("recommend", flag.ContinueOnError)
	modelPath := fs.String("model", "model.json", "trained model path")
	dsPath := fs.String("dataset", "dataset.csv", "dataset CSV holding the function's monitoring data")
	fn := fs.String("function", "", "function ID to recommend for")
	tradeoff := fs.Float64("t", 0.75, "cost/performance tradeoff in [0,1]")
	providerName := fs.String("provider", platform.AWSLambdaName, "pricing/platform provider (see 'sizeless providers')")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fn == "" {
		return fmt.Errorf("recommend: -function is required")
	}
	provider, err := sizeless.ProviderByName(*providerName)
	if err != nil {
		return err
	}
	mf, err := os.Open(*modelPath)
	if err != nil {
		return err
	}
	defer mf.Close()
	pred, err := sizeless.LoadPredictor(mf, sizeless.WithProvider(provider))
	if err != nil {
		return err
	}
	ds, err := loadDataset(*dsPath)
	if err != nil {
		return err
	}
	var summary monitoring.Summary
	found := false
	for _, row := range ds.Rows {
		if row.FunctionID == *fn {
			summary, found = row.Summaries[pred.Base()]
			break
		}
	}
	if !found {
		return fmt.Errorf("function %q with base %v not in dataset", *fn, pred.Base())
	}
	rec, err := pred.Recommend(summary, *tradeoff)
	if err != nil {
		return err
	}
	fmt.Printf("function %s (monitored at %v, t=%.2f, provider %s)\n",
		*fn, pred.Base(), *tradeoff, provider.Name())
	fmt.Printf("%-8s %12s %14s %8s %8s %8s\n", "memory", "pred time", "cost/1M", "S_cost", "S_perf", "S_total")
	for _, o := range rec.Options {
		fmt.Printf("%-8v %11.1fms %13.2f$ %8.3f %8.3f %8.3f\n",
			o.Memory, o.ExecTimeMs, o.Cost*1e6, o.SCost, o.SPerf, o.STotal)
	}
	fmt.Printf("recommended: %v\n", rec.Best)
	return nil
}

// cmdAdapt is the cross-provider migration workflow: load a trained model,
// fine-tune it on a small dataset measured on the target platform, and
// write an adapted model file bound to the target provider.
func cmdAdapt(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("adapt", flag.ContinueOnError)
	modelPath := fs.String("model", "model.json", "trained source model path")
	dsPath := fs.String("dataset", "adapt.csv", "small adaptation dataset CSV measured on the target platform")
	out := fs.String("out", "adapted.json", "output path for the adapted model")
	sourceName := fs.String("source", "", "provider the model was trained for (default: the model's recorded provenance, else "+platform.AWSLambdaName+")")
	providerName := fs.String("provider", "", "target platform provider (default: same as the source)")
	freeze := fs.Int("freeze", -1, "layers to freeze during fine-tuning (-1 = half the network, 0 = none)")
	epochs := fs.Int("epochs", 100, "fine-tuning epoch budget")
	patience := fs.Int("patience", 0, "early stopping: stop after this many epochs without validation improvement (0 = train the full budget; recommended on tiny adaptation datasets)")
	valSplit := fs.Float64("valsplit", 0, "validation split fraction for early stopping (0 = default 0.25 when -patience is set)")
	evalPath := fs.String("eval", "", "optional held-out target dataset CSV: report stale vs adapted accuracy")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Model files don't serialize a provider, so the source binding comes
	// from -source, or — when re-adapting an already-adapted model — from
	// the provenance recorded in the file.
	data, err := os.ReadFile(*modelPath)
	if err != nil {
		return err
	}
	pred, err := sizeless.LoadPredictor(bytes.NewReader(data))
	if err != nil {
		return err
	}
	src := *sourceName
	if src == "" {
		src = pred.Provenance().Target
	}
	if src != "" && src != pred.Provider().Name() {
		srcProvider, err := sizeless.ProviderByName(src)
		if err != nil {
			return fmt.Errorf("source provider: %w", err)
		}
		if pred, err = sizeless.LoadPredictor(bytes.NewReader(data), sizeless.WithProvider(srcProvider)); err != nil {
			return err
		}
	}
	ds, err := loadDataset(*dsPath)
	if err != nil {
		return err
	}

	opts := []sizeless.Option{sizeless.WithFineTuneEpochs(*epochs)}
	if *providerName != "" {
		provider, err := sizeless.ProviderByName(*providerName)
		if err != nil {
			return err
		}
		opts = append(opts, sizeless.WithProvider(provider))
	}
	if *freeze >= 0 {
		opts = append(opts, sizeless.WithFreezeLayers(*freeze))
	}
	if *patience > 0 {
		opts = append(opts, sizeless.WithEarlyStopping(*patience))
	}
	if *valSplit != 0 {
		opts = append(opts, sizeless.WithValidationSplit(*valSplit))
	}

	start := time.Now()
	adapted, err := pred.Adapt(ctx, ds, opts...)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := adapted.Save(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	prov := adapted.Provenance()
	epochsNote := fmt.Sprintf("%d epochs", prov.Epochs)
	if prov.EarlyStopped {
		epochsNote = fmt.Sprintf("%d/%d epochs, early-stopped", prov.EpochsSpent, prov.Epochs)
	}
	fmt.Fprintf(os.Stderr, "adapted %s→%s on %d functions (froze %d layers, %s) in %v → %s\n",
		prov.Source, prov.Target, prov.AdaptRows, prov.FreezeLayers, epochsNote,
		time.Since(start).Round(time.Millisecond), *out)

	if *evalPath != "" {
		evalDS, err := loadDataset(*evalPath)
		if err != nil {
			return err
		}
		stale, err := pred.Evaluate(evalDS)
		if err != nil {
			return err
		}
		tuned, err := adapted.Evaluate(evalDS)
		if err != nil {
			return err
		}
		fmt.Printf("held-out target accuracy (%d functions):\n", len(evalDS.Rows))
		fmt.Printf("  stale    MAPE=%.4f R2=%.4f\n", stale.MAPE, stale.R2)
		fmt.Printf("  adapted  MAPE=%.4f R2=%.4f\n", tuned.MAPE, tuned.R2)
	}
	return nil
}

// cmdServe runs the fleet-recommendation daemon: the long-running,
// provider-side deployment of the recommender with bounded ingest
// backpressure, durable fleet snapshots, and optional drift-triggered
// auto-adaptation.
func cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	modelPath := fs.String("model", "model.json", "trained model path")
	providerName := fs.String("provider", platform.AWSLambdaName, "pricing/platform provider (see 'sizeless providers')")
	addr := fs.String("addr", "127.0.0.1:8080", "HTTP listen address (use :0 for an ephemeral port)")
	tradeoff := fs.Float64("t", 0.75, "cost/performance tradeoff in [0,1]")
	minWindow := fs.Int("minwindow", 0, "invocations required before a function gets a recommendation (0 = service default; at least 20)")
	shards := fs.Int("shards", 0, "lock shards for the fleet state (0 = service default)")
	workers := fs.Int("workers", 0, "batch recompute workers (0 = service default)")
	queueDepth := fs.Int("queue-depth", 256, "max queued+in-flight ingest jobs per shard before 429")
	queueBytes := fs.Int64("queue-bytes", 4<<20, "max queued+in-flight window bytes per shard before 429")
	snapshot := fs.String("snapshot", "", "fleet snapshot path: restored on startup, written periodically and on shutdown (empty = no durability)")
	snapInterval := fs.Duration("snapshot-interval", time.Minute, "periodic snapshot cadence")
	adaptDS := fs.String("adapt-dataset", "", "adaptation dataset CSV for the drift-triggered auto-adapt loop (empty = disabled; reloaded fresh at each firing)")
	adaptInterval := fs.Duration("adapt-interval", 30*time.Second, "drift-quorum observation interval")
	adaptQuorum := fs.Float64("adapt-quorum", 0.25, "fraction of recommendation-bearing functions that must drift within one interval to trigger adaptation")
	patience := fs.Int("patience", 10, "early-stopping patience for auto-adaptation fine-tunes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	provider, err := sizeless.ProviderByName(*providerName)
	if err != nil {
		return err
	}
	mf, err := os.Open(*modelPath)
	if err != nil {
		return err
	}
	pred, err := sizeless.LoadPredictor(mf, sizeless.WithProvider(provider))
	mf.Close()
	if err != nil {
		return err
	}

	svcOpts := []sizeless.Option{sizeless.WithTradeoff(*tradeoff)}
	if *minWindow > 0 {
		svcOpts = append(svcOpts, sizeless.WithMinWindow(*minWindow))
	}
	if *shards > 0 {
		svcOpts = append(svcOpts, sizeless.WithShards(*shards))
	}
	if *workers > 0 {
		svcOpts = append(svcOpts, sizeless.WithWorkers(*workers))
	}
	cfg := serve.Config{
		Predictor:        pred,
		ServiceOptions:   svcOpts,
		Addr:             *addr,
		QueueDepth:       *queueDepth,
		QueueBytes:       *queueBytes,
		SnapshotPath:     *snapshot,
		SnapshotInterval: *snapInterval,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		},
	}
	if *adaptDS != "" {
		cfg.Adapt = serve.AdaptConfig{
			// Reload the CSV at each firing so an operator can refresh the
			// adaptation measurements while the daemon runs.
			Source:   func(context.Context) (*sizeless.Dataset, error) { return loadDataset(*adaptDS) },
			Interval: *adaptInterval,
			Quorum:   *adaptQuorum,
			Patience: *patience,
		}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	return srv.Run(ctx)
}

// cmdPlan is application-aware sizing: measure one case-study app on the
// selected provider and plan it per-function, jointly (sizes only), and
// jointly with fusion, printing the three deployments side by side to w.
func cmdPlan(ctx context.Context, w io.Writer, args []string) error {
	fs := flag.NewFlagSet("plan", flag.ContinueOnError)
	appName := fs.String("app", "hello-retail", "case-study application (use -list to enumerate)")
	list := fs.Bool("list", false, "list the case-study applications and exit")
	providerName := fs.String("provider", platform.AWSLambdaName, "platform provider (see 'sizeless providers')")
	tradeoff := fs.Float64("t", dag.DefaultTradeoff, "cost/performance tradeoff in (0,1]")
	rate := fs.Float64("rate", 0, "application request rate in req/s driving cold-start exposure (0 = the app's documented rate)")
	duration := fs.Duration("duration", 10*time.Second, "measurement duration per function × size")
	seed := fs.Int64("seed", 1, "measurement and planning seed (plans are bit-identical per seed)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, a := range apps.All() {
			fmt.Fprintf(w, "%-20s %d functions, %d edges, %g req/s\n", a.Name, len(a.Functions), len(a.Edges), a.Rate)
		}
		return nil
	}
	provider, err := sizeless.ProviderByName(*providerName)
	if err != nil {
		return err
	}
	var app apps.App
	found := false
	for _, a := range apps.All() {
		if a.Name == *appName {
			app, found = a, true
		}
	}
	if !found {
		return fmt.Errorf("unknown app %q (try 'sizeless plan -list')", *appName)
	}

	sizes := provider.DefaultSizes()
	env := runtime.NewEnvFor(provider.Platform())
	env.Drift = app.Drift
	fmt.Fprintf(os.Stderr, "measuring %s: %d functions × %d sizes on %s...\n",
		app.Name, len(app.Functions), len(sizes), provider.Name())
	ds, err := harness.BuildDataset(ctx, harness.Options{
		Env:      env,
		Rate:     app.Rate,
		Duration: *duration,
		Sizes:    sizes,
		Seed:     *seed,
	}, app.Functions)
	if err != nil {
		return err
	}
	times := make(map[string]map[platform.MemorySize]float64, len(ds.Rows))
	for _, row := range ds.Rows {
		times[row.FunctionID] = row.ExecTimes()
	}
	g, err := app.Graph(times)
	if err != nil {
		return err
	}
	planRate := *rate
	if planRate <= 0 {
		planRate = app.Rate
	}
	cmp, err := dag.Compare(ctx, g, dag.Config{
		Platform: provider.Platform(),
		Sizes:    sizes,
		Tradeoff: *tradeoff,
		Rate:     planRate,
		Seed:     *seed,
	})
	if err != nil {
		return err
	}

	printPlan := func(title string, pl *dag.Plan) {
		fmt.Fprintf(w, "%s\n", title)
		for _, gp := range pl.Groups {
			fmt.Fprintf(w, "  %-8v %9.1fms  %s\n", gp.Memory, gp.LatencyMs, strings.Join(gp.Functions, " + "))
		}
		fmt.Fprintf(w, "  => %.3g $/req, %.1fms critical path, %.0f invocations/req, S_total=%.3f\n\n",
			pl.CostPerReq, pl.LatencyMs, pl.InvocationsPerReq, pl.STotal)
	}
	fmt.Fprintf(w, "application %s on %s (t=%.2f, %g req/s, seed %d)\n\n",
		app.Name, provider.Name(), *tradeoff, planRate, *seed)
	printPlan("per-function-optimal (paper's optimizer per function):", cmp.PerFunction)
	printPlan("application-optimal, sizes only:", cmp.SizesOnly)
	printPlan("application-optimal, sizes + fusion:", cmp.Fused)
	return nil
}

func cmdDemo(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("demo", flag.ContinueOnError)
	functions := fs.Int("functions", 120, "synthetic training functions")
	providerName := fs.String("provider", platform.AWSLambdaName, "platform provider (see 'sizeless providers')")
	if err := fs.Parse(args); err != nil {
		return err
	}
	provider, err := sizeless.ProviderByName(*providerName)
	if err != nil {
		return err
	}
	fmt.Printf("1/3 generating training dataset on %s (simulated measurement campaign)...\n", provider.Name())
	ds, err := sizeless.GenerateDataset(ctx,
		sizeless.WithProvider(provider),
		sizeless.WithFunctions(*functions),
		sizeless.WithRate(10),
		sizeless.WithDuration(8*time.Second),
		sizeless.WithSeed(1),
	)
	if err != nil {
		return err
	}
	fmt.Printf("    %d functions × %d sizes measured\n", len(ds.Rows), len(ds.Sizes))

	fmt.Println("2/3 training the multi-target regression model...")
	pred, err := sizeless.TrainPredictor(ctx, ds,
		sizeless.WithProvider(provider),
		sizeless.WithHidden(64, 64),
		sizeless.WithEpochs(200),
	)
	if err != nil {
		return err
	}

	fmt.Println("3/3 recommending a memory size for a held-out function...")
	summary := ds.Rows[len(ds.Rows)-1].Summaries[pred.Base()]
	rec, err := pred.Recommend(summary, 0.75)
	if err != nil {
		return err
	}
	for _, o := range rec.Options {
		marker := " "
		if o.Memory == rec.Best {
			marker = "*"
		}
		fmt.Printf("  %s %-8v %9.1fms  S_total=%.3f\n", marker, o.Memory, o.ExecTimeMs, o.STotal)
	}
	fmt.Printf("recommended memory size: %v\n", rec.Best)
	return nil
}
