package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sizeless"
)

// writeTestDataset builds a small dataset CSV for the CLI tests.
func writeTestDataset(t *testing.T) string {
	t.Helper()
	ds, err := sizeless.GenerateDataset(context.Background(),
		sizeless.WithFunctions(25),
		sizeless.WithRate(10),
		sizeless.WithDuration(4*time.Second),
		sizeless.WithSeed(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ds.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := ds.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTrainEvaluateRecommendPipeline(t *testing.T) {
	ctx := context.Background()
	dsPath := writeTestDataset(t)
	modelPath := filepath.Join(t.TempDir(), "model.json")

	if err := run(ctx, []string{"train", "-dataset", dsPath, "-epochs", "40", "-out", modelPath}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if _, err := os.Stat(modelPath); err != nil {
		t.Fatalf("model not written: %v", err)
	}
	// Early-stopped training is a drop-in flag swap.
	esPath := filepath.Join(t.TempDir(), "model-es.json")
	if err := run(ctx, []string{"train", "-dataset", dsPath, "-epochs", "120",
		"-patience", "10", "-valsplit", "0.2", "-out", esPath}); err != nil {
		t.Fatalf("train -patience: %v", err)
	}
	if _, err := os.Stat(esPath); err != nil {
		t.Fatalf("early-stopped model not written: %v", err)
	}
	if err := run(ctx, []string{"evaluate", "-dataset", dsPath, "-epochs", "30", "-folds", "3"}); err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	if err := run(ctx, []string{"evaluate", "-dataset", dsPath, "-epochs", "60", "-folds", "3",
		"-patience", "8"}); err != nil {
		t.Fatalf("evaluate -patience: %v", err)
	}
	if err := run(ctx, []string{"recommend", "-model", modelPath, "-dataset", dsPath,
		"-function", "synthetic-0003", "-t", "0.75"}); err != nil {
		t.Fatalf("recommend: %v", err)
	}
	if err := run(ctx, []string{"recommend", "-model", modelPath, "-dataset", dsPath,
		"-function", "synthetic-0003", "-t", "NaN"}); err == nil {
		t.Error("recommend -t NaN should error")
	}
	for _, split := range []string{"-0.3", "NaN"} {
		if err := run(ctx, []string{"train", "-dataset", dsPath, "-valsplit", split, "-out", esPath}); err == nil {
			t.Errorf("train -valsplit %s should error", split)
		}
	}
	if err := run(ctx, []string{"evaluate", "-dataset", dsPath, "-iterations", "0"}); err == nil {
		t.Error("evaluate -iterations 0 should error")
	}
	// The same model recommends under a different provider's pricing.
	if err := run(ctx, []string{"recommend", "-model", modelPath, "-dataset", dsPath,
		"-function", "synthetic-0003", "-provider", "azure-functions"}); err != nil {
		t.Fatalf("recommend -provider: %v", err)
	}
}

// writeProviderDataset measures a corpus on the given provider over the
// AWS/GCP-portable grid and writes it as CSV.
func writeProviderDataset(t *testing.T, name string, providerName string, functions int, seed int64) string {
	t.Helper()
	provider, err := sizeless.ProviderByName(providerName)
	if err != nil {
		t.Fatal(err)
	}
	aws, gcp := sizeless.AWSLambda(), sizeless.GCPCloudFunctions()
	ds, err := sizeless.GenerateDataset(context.Background(),
		sizeless.WithProvider(provider),
		sizeless.WithSizes(sizeless.CommonSizes(aws, gcp)...),
		sizeless.WithFunctions(functions),
		sizeless.WithRate(10),
		sizeless.WithDuration(4*time.Second),
		sizeless.WithSeed(seed),
	)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := ds.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestAdaptSubcommand(t *testing.T) {
	ctx := context.Background()
	srcPath := writeProviderDataset(t, "aws.csv", "aws-lambda", 30, 3)
	adaptPath := writeProviderDataset(t, "gcp-adapt.csv", "gcp-cloudfunctions", 12, 4)
	evalPath := writeProviderDataset(t, "gcp-eval.csv", "gcp-cloudfunctions", 10, 5)
	modelPath := filepath.Join(t.TempDir(), "model.json")
	adaptedPath := filepath.Join(t.TempDir(), "adapted.json")

	if err := run(ctx, []string{"train", "-dataset", srcPath, "-epochs", "40", "-out", modelPath}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if err := run(ctx, []string{"adapt", "-model", modelPath, "-dataset", adaptPath,
		"-provider", "gcp-cloudfunctions", "-epochs", "60", "-out", adaptedPath,
		"-eval", evalPath}); err != nil {
		t.Fatalf("adapt: %v", err)
	}

	f, err := os.Open(adaptedPath)
	if err != nil {
		t.Fatalf("adapted model not written: %v", err)
	}
	defer f.Close()
	pred, err := sizeless.LoadPredictor(f)
	if err != nil {
		t.Fatalf("adapted model does not load: %v", err)
	}
	prov := pred.Provenance()
	if !prov.FineTuned || prov.Source != "aws-lambda" || prov.Target != "gcp-cloudfunctions" {
		t.Errorf("provenance not persisted: %+v", prov)
	}
	if prov.AdaptRows != 12 || prov.Epochs != 60 {
		t.Errorf("provenance settings wrong: %+v", prov)
	}

	// Re-adapting the adapted model infers its source from the recorded
	// provenance: no -source needed, and the lineage stays truthful.
	rePath := filepath.Join(t.TempDir(), "readapted.json")
	if err := run(ctx, []string{"adapt", "-model", adaptedPath, "-dataset", evalPath,
		"-provider", "gcp-cloudfunctions", "-epochs", "20", "-out", rePath}); err != nil {
		t.Fatalf("re-adapt: %v", err)
	}
	rf, err := os.Open(rePath)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	rePred, err := sizeless.LoadPredictor(rf)
	if err != nil {
		t.Fatal(err)
	}
	if got := rePred.Provenance().Source; got != "gcp-cloudfunctions" {
		t.Errorf("re-adapt source = %q, want provenance-inferred gcp-cloudfunctions", got)
	}

	// Early stopping via -patience: the adapted file records the cut
	// budget in its provenance.
	esPath := filepath.Join(t.TempDir(), "adapted-es.json")
	if err := run(ctx, []string{"adapt", "-model", modelPath, "-dataset", adaptPath,
		"-provider", "gcp-cloudfunctions", "-epochs", "60", "-patience", "5",
		"-valsplit", "0.25", "-out", esPath}); err != nil {
		t.Fatalf("adapt -patience: %v", err)
	}
	ef, err := os.Open(esPath)
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	esPred, err := sizeless.LoadPredictor(ef)
	if err != nil {
		t.Fatal(err)
	}
	if prov := esPred.Provenance(); prov.EpochsSpent == 0 || prov.EpochsSpent > 60 {
		t.Errorf("early-stopped adapt provenance = %+v, want 0 < EpochsSpent <= 60", prov)
	}

	// Unknown providers and a missing model are rejected.
	if err := run(ctx, []string{"adapt", "-model", modelPath, "-dataset", adaptPath,
		"-provider", "no-such-cloud"}); err == nil {
		t.Error("unknown provider should error")
	}
	if err := run(ctx, []string{"adapt", "-model", modelPath, "-dataset", adaptPath,
		"-source", "no-such-cloud"}); err == nil {
		t.Error("unknown source provider should error")
	}
	if err := run(ctx, []string{"adapt", "-model", "/does/not/exist.json"}); err == nil {
		t.Error("missing model should error")
	}
}

func TestProvidersSubcommand(t *testing.T) {
	if err := run(context.Background(), []string{"providers"}); err != nil {
		t.Fatalf("providers: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, nil); err == nil {
		t.Error("no args should error with usage")
	}
	if err := run(ctx, []string{"frobnicate"}); err == nil {
		t.Error("unknown subcommand should error")
	}
	if err := run(ctx, []string{"train", "-dataset", "/does/not/exist.csv"}); err == nil {
		t.Error("missing dataset should error")
	}
	if err := run(ctx, []string{"train", "-base", "100"}); err == nil {
		t.Error("invalid base size should error")
	}
	if err := run(ctx, []string{"recommend", "-model", "nope.json"}); err == nil {
		t.Error("recommend without function should error")
	}
	if err := run(ctx, []string{"recommend", "-model", "nope.json", "-function", "f",
		"-provider", "no-such-cloud"}); err == nil {
		t.Error("unknown provider should error")
	}
}

func TestPlanSubcommand(t *testing.T) {
	if testing.Short() {
		t.Skip("measures an app across the memory grid")
	}
	ctx := context.Background()
	if err := run(ctx, []string{"plan", "-list"}); err != nil {
		t.Fatalf("plan -list: %v", err)
	}
	if err := run(ctx, []string{"plan", "-app", "airline-booking", "-duration", "3s"}); err != nil {
		t.Fatalf("plan: %v", err)
	}
	if err := run(ctx, []string{"plan", "-app", "no-such-app"}); err == nil {
		t.Error("unknown app should error")
	}
	if err := run(ctx, []string{"plan", "-provider", "no-such-cloud"}); err == nil {
		t.Error("unknown provider should error")
	}
	if err := run(ctx, []string{"plan", "-app", "hello-retail", "-t", "1.5"}); err == nil {
		t.Error("out-of-range tradeoff should error")
	}
	if err := run(ctx, []string{"plan", "-app", "hello-retail", "-t", "NaN"}); err == nil {
		t.Error("NaN tradeoff should error")
	}
}

func TestDemo(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small measurement campaign")
	}
	if err := run(context.Background(), []string{"demo", "-functions", "30"}); err != nil {
		t.Fatal(err)
	}
}
