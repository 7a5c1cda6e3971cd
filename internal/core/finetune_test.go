package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"sizeless/internal/platform"
)

// countdownCtx trips its Err after a fixed number of polls — deterministic
// mid-flight cancellation (the engine polls once per epoch, the pool once
// per job or slice). It is safe for concurrent workers and counts every
// poll.
type countdownCtx struct {
	context.Context
	remaining, polls atomic.Int64
}

func newCountdownCtx(polls int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(polls)
	return c
}

func (c *countdownCtx) Err() error {
	c.polls.Add(1)
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// tunedBase trains a small source model for the fine-tune edge cases.
func tunedBase(t *testing.T) *Model {
	t.Helper()
	ds := testDataset(t)
	model, err := Train(context.Background(), ds, smallConfig(platform.Mem256))
	if err != nil {
		t.Fatal(err)
	}
	return model
}

func TestFineTuneFreezeBounds(t *testing.T) {
	model := tunedBase(t)
	ds := testDataset(t)
	subset := ds.Subset([]int{0, 1, 2, 3, 4})
	layers := model.nets[0].LayerCount()

	// Freezing every layer (or more) leaves nothing to adapt.
	for _, freeze := range []int{layers, layers + 1, layers + 100} {
		_, err := FineTune(context.Background(), model, subset, FineTuneOptions{FreezeLayers: freeze, Epochs: 5})
		if err == nil {
			t.Errorf("freeze=%d of %d layers should error", freeze, layers)
		} else if !strings.Contains(err.Error(), "no trainable layers") {
			t.Errorf("freeze=%d: unexpected error %v", freeze, err)
		}
	}

	// One short of everything is the maximum legal freeze.
	tuned, err := FineTune(context.Background(), model, subset, FineTuneOptions{FreezeLayers: layers - 1, Epochs: 5})
	if err != nil {
		t.Fatalf("freeze=%d should work: %v", layers-1, err)
	}
	if got := tuned.Provenance().FreezeLayers; got != layers-1 {
		t.Errorf("provenance freeze = %d, want %d", got, layers-1)
	}

	// Negative means freeze nothing: full warm-start retraining.
	tuned, err = FineTune(context.Background(), model, subset, FineTuneOptions{FreezeLayers: -1, Epochs: 5})
	if err != nil {
		t.Fatalf("freeze=-1 should work: %v", err)
	}
	if got := tuned.Provenance().FreezeLayers; got != 0 {
		t.Errorf("provenance freeze = %d, want 0", got)
	}

	// Zero defaults to the half split.
	tuned, err = FineTune(context.Background(), model, subset, FineTuneOptions{Epochs: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := tuned.Provenance().FreezeLayers; got != layers/2 {
		t.Errorf("default freeze = %d, want %d", got, layers/2)
	}
}

func TestFineTuneTinyDatasets(t *testing.T) {
	model := tunedBase(t)
	ds := testDataset(t)

	// Empty adaptation dataset is rejected up front.
	empty := ds.Subset(nil)
	if _, err := FineTune(context.Background(), model, empty, FineTuneOptions{Epochs: 5}); err == nil {
		t.Error("empty adaptation dataset should error")
	}
	// So is a validation fraction outside [0, 1), NaN included.
	for _, frac := range []float64{math.NaN(), -0.1, 1} {
		if _, err := FineTune(context.Background(), model, ds, FineTuneOptions{Epochs: 5, ValidationFraction: frac}); err == nil {
			t.Errorf("validation fraction %v should error", frac)
		}
	}

	// A single row is degenerate but legal: the optimizer just overfits it.
	one := ds.Subset([]int{0})
	tuned, err := FineTune(context.Background(), model, one, FineTuneOptions{Epochs: 5})
	if err != nil {
		t.Fatalf("one-row adaptation should work: %v", err)
	}
	if got := tuned.Provenance().AdaptRows; got != 1 {
		t.Errorf("provenance adapt rows = %d, want 1", got)
	}
	if _, err := tuned.Predict(ds.Rows[1].Summaries[platform.Mem256]); err != nil {
		t.Errorf("one-row-tuned model cannot predict: %v", err)
	}
}

func TestFineTuneContextCancellation(t *testing.T) {
	model := tunedBase(t)
	ds := testDataset(t)
	subset := ds.Subset([]int{0, 1, 2, 3, 4, 5, 6, 7})
	before, err := model.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first epoch boundary
	if _, err := FineTune(ctx, model, subset, FineTuneOptions{Epochs: 1000}); err == nil {
		t.Error("cancelled context should abort fine-tuning")
	}

	// Cancelled in the middle of a slice: three members on two workers
	// train 500-epoch slices, and the context is done after 40 epoch
	// boundaries. Every member stops at its next boundary, no new slice
	// starts, and the context's error comes back.
	for _, patience := range []int{0, 1000} {
		ctx := newCountdownCtx(40)
		_, err := FineTune(ctx, model, subset, FineTuneOptions{Epochs: 1000, Patience: patience, Workers: 2})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("patience %d: cancelled mid-slice fine-tune returned %v, want context.Canceled", patience, err)
		}
		if n := ctx.polls.Load(); n > 60 {
			t.Errorf("patience %d: %d context checks, want the members stopped right after the 40th", patience, n)
		}
	}

	// The original model is untouched by the aborted adaptations.
	if after, err := model.Fingerprint(); err != nil || after != before {
		t.Errorf("source model changed by aborted fine-tunes: %s → %s (%v)", before, after, err)
	}
	if _, err := model.Predict(ds.Rows[0].Summaries[platform.Mem256]); err != nil {
		t.Errorf("source model broken after aborted fine-tune: %v", err)
	}
}

func TestFineTunePreservesScalerAndProvenance(t *testing.T) {
	model := tunedBase(t)
	ds := testDataset(t)
	subset := ds.Subset([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})

	tuned, err := FineTune(context.Background(), model, subset, FineTuneOptions{
		Epochs: 10, Source: "aws-lambda", Target: "gcp-cloudfunctions",
	})
	if err != nil {
		t.Fatal(err)
	}

	// The source scaler is carried over verbatim: inputs stay on the scale
	// the early (frozen) layers were trained against.
	if len(tuned.scaler.Mean) != len(model.scaler.Mean) {
		t.Fatalf("scaler width changed: %d vs %d", len(tuned.scaler.Mean), len(model.scaler.Mean))
	}
	for i := range model.scaler.Mean {
		if tuned.scaler.Mean[i] != model.scaler.Mean[i] || tuned.scaler.Std[i] != model.scaler.Std[i] {
			t.Fatalf("scaler column %d changed: mean %v→%v std %v→%v", i,
				model.scaler.Mean[i], tuned.scaler.Mean[i], model.scaler.Std[i], tuned.scaler.Std[i])
		}
	}

	// Provenance is stamped and survives a save/load round trip.
	prov := tuned.Provenance()
	if !prov.FineTuned || prov.Source != "aws-lambda" || prov.Target != "gcp-cloudfunctions" {
		t.Errorf("provenance = %+v", prov)
	}
	if prov.AdaptRows != 10 || prov.Epochs != 10 {
		t.Errorf("provenance settings = %+v", prov)
	}
	var buf strings.Builder
	if err := tuned.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Provenance() != prov {
		t.Errorf("provenance lost in round trip: %+v vs %+v", loaded.Provenance(), prov)
	}

	// A from-scratch model carries no provenance, in memory or on disk.
	if model.Provenance() != (Provenance{}) {
		t.Errorf("scratch model has provenance: %+v", model.Provenance())
	}
	buf.Reset()
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "provenance") {
		t.Error("scratch model file should omit the provenance key")
	}
}
