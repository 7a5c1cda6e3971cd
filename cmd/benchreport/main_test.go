package main

import (
	"context"
	"strings"
	"testing"
)

func TestKnownIDs(t *testing.T) {
	for _, id := range []string{"fig1", "fig3", "fig4", "fig5", "table2", "table3",
		"fig6", "table4-7", "fig7", "table8", "baselines",
		"ablation-targets", "ablation-features", "ablation-increments", "transfer",
		"transfer-matrix", "scenario-matrix", "app-matrix"} {
		if !knownID(id) {
			t.Errorf("experiment id %q not registered", id)
		}
	}
	// The benchmark-timing ids are retired: BENCH_*.json and bench/ own
	// those numbers.
	for _, id := range []string{"fig99", "ingest-scale", "train-scale", "search-scale"} {
		if knownID(id) {
			t.Errorf("unknown id %q accepted", id)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-scale", "gigantic"}, &out); err == nil {
		t.Error("unknown scale should error")
	}
	if err := run(context.Background(), []string{"-run", "fig99"}, &out); err == nil {
		t.Error("unknown experiment id should error")
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small measurement campaign")
	}
	var out strings.Builder
	if err := run(context.Background(), []string{"-scale", "small", "-run", "fig1"}, &out); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{"Sizeless reproduction report", "fig1", "InvertMatrix", "PrimeNumbers"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
