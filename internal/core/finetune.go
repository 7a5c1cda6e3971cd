package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"sizeless/internal/dataset"
	"sizeless/internal/features"
	"sizeless/internal/nn"
	"sizeless/internal/pool"
)

// FineTuneOptions configures transfer learning (the paper's §5 proposal for
// surviving provider-side platform changes without regenerating the full
// 2000-function dataset).
type FineTuneOptions struct {
	// FreezeLayers freezes this many initial layers. Zero means half the
	// network (rounded down), the usual transfer-learning split; negative
	// means freeze nothing (full warm-start retraining). Freezing every
	// layer is an error: nothing would adapt.
	FreezeLayers int
	// Epochs is the retraining budget (default 100).
	Epochs int
	// Patience enables early stopping: each ensemble member holds
	// ValidationFraction of the adaptation rows out, scores them every
	// epoch, and stops after this many stagnant epochs, keeping its
	// best-validation weights. Zero trains the full budget — on the tiny
	// datasets Adapt is built for, that routinely overfits (the diagonal
	// same-provider fine-tunes of the transfer matrix are the visible
	// case), so production adaptation should set a patience.
	Patience int
	// ValidationFraction is the held-out share of the adaptation dataset
	// (default 0.25 when Patience is set). Setting it without Patience
	// runs the full budget but still returns best-validation weights.
	// Adaptation sets with fewer than two rows fall back to budget
	// training — there is nothing to hold out.
	ValidationFraction float64
	// Seed drives the validation split (default 0; any fixed value is
	// reproducible).
	Seed int64
	// Source and Target label where the model came from and where it is
	// being adapted to (typically provider names). They are recorded in the
	// adapted model's Provenance and serialized with it; empty labels are
	// fine.
	Source, Target string
	// Workers bounds the fine-tuning parallelism (0 = GOMAXPROCS).
	// Ensemble members share the workers in epoch slices; each runs the
	// same epochs in the same order on its own state, so the adapted model
	// is identical for any worker count.
	Workers int
}

// Provenance records how an adapted model came to be: the transfer-learning
// settings and the platforms involved. It is serialized alongside the
// weights so an adapted model file is self-describing.
type Provenance struct {
	// FineTuned reports whether the model is the output of FineTune (false
	// for models trained from scratch).
	FineTuned bool `json:"fine_tuned"`
	// FreezeLayers is the number of layers that stayed frozen during
	// adaptation.
	FreezeLayers int `json:"freeze_layers"`
	// Epochs is the adaptation retraining budget.
	Epochs int `json:"epochs"`
	// AdaptRows is the size of the adaptation dataset.
	AdaptRows int `json:"adapt_rows"`
	// EpochsSpent is the largest epoch count any ensemble member actually
	// trained — below Epochs when early stopping cut the budget. Zero in
	// files written before adaptive search existed.
	EpochsSpent int `json:"epochs_spent,omitempty"`
	// EarlyStopped reports whether validation patience ended at least one
	// member's adaptation before the budget.
	EarlyStopped bool `json:"early_stopped,omitempty"`
	// Source and Target are free-form platform labels (usually provider
	// registry names, e.g. "aws-lambda" → "gcp-cloudfunctions").
	Source string `json:"source,omitempty"`
	Target string `json:"target,omitempty"`
}

// FineTune clones the model and adapts the clone to a (typically much
// smaller) new dataset: the first layers are frozen, the rest retrain on
// the new data. The original model is left untouched; the feature scaler is
// retained from the original so inputs stay on the same scale. The clone's
// Provenance records the adaptation settings.
func FineTune(ctx context.Context, m *Model, ds *dataset.Dataset, opts FineTuneOptions) (*Model, error) {
	if len(ds.Rows) == 0 {
		return nil, errors.New("core: fine-tune dataset is empty")
	}
	if opts.Epochs <= 0 {
		opts.Epochs = 100
	}
	if f := opts.ValidationFraction; !(f >= 0 && f < 1) {
		return nil, fmt.Errorf("core: fine-tune: validation fraction %v outside [0, 1)", f)
	}

	// Clone via serialization: fresh optimizer state, independent weights.
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	clone, err := LoadModel(&buf)
	if err != nil {
		return nil, err
	}

	// Resolve the freeze split once; every ensemble member has the same
	// depth. Freezing the whole network would leave nothing to adapt.
	layers := clone.nets[0].LayerCount()
	freeze := opts.FreezeLayers
	switch {
	case freeze == 0:
		freeze = layers / 2
	case freeze < 0:
		freeze = 0
	}
	if freeze >= layers {
		return nil, fmt.Errorf("core: fine-tune: freezing %d of %d layers leaves no trainable layers", freeze, layers)
	}

	x, err := features.Matrix(ds, clone.cfg.Base, clone.cfg.Features)
	if err != nil {
		return nil, fmt.Errorf("core: fine-tune: %w", err)
	}
	y, err := features.Targets(ds, clone.cfg.Base, clone.targets)
	if err != nil {
		return nil, fmt.Errorf("core: fine-tune: %w", err)
	}
	xs, err := clone.scaler.TransformBatch(x)
	if err != nil {
		return nil, fmt.Errorf("core: fine-tune: %w", err)
	}

	// Early stopping: hold a slice of the adaptation rows out and let each
	// member keep its best-validation weights — the guard against the
	// small-corpus overfitting a full fixed budget produces. An explicit
	// ValidationFraction without Patience keeps the split active too:
	// the full budget runs, best-validation weights are still restored
	// (mirroring Train's contract for the same pair of knobs).
	trX, trY := xs, y
	var vaX, vaY [][]float64
	if opts.Patience > 0 || opts.ValidationFraction > 0 {
		frac := opts.ValidationFraction
		if frac <= 0 {
			frac = 0.25
		}
		trX, trY, vaX, vaY = validationSplit(xs, y, frac, opts.Seed)
	}

	// Every ensemble member shares the mini-batch training engine with
	// Train: the freeze is applied at the engine level, so frozen layers
	// skip backward compute entirely. Members adapt independently, sharing
	// the worker pool in epoch slices.
	val := nn.Validation{X: vaX, Y: vaY, Patience: opts.Patience}
	runs := make([]*nn.Session, len(clone.nets))
	for i, net := range clone.nets {
		if err := net.SetFrozenLayers(freeze); err != nil {
			return nil, fmt.Errorf("core: fine-tune: %w", err)
		}
		if runs[i], err = net.NewSession(trX, trY, opts.Epochs, val); err != nil {
			return nil, fmt.Errorf("core: fine-tune: %w", err)
		}
	}
	err = pool.RunSlices(ctx, len(runs), opts.Workers, opts.Epochs, func(i, epochs int) (bool, error) {
		return trainSlice(ctx, runs[i], clone.nets[i], epochs)
	})
	if err != nil {
		return nil, fmt.Errorf("core: fine-tune: %w", err)
	}
	spent := 0
	stopped := false
	for _, run := range runs {
		st := run.Stats()
		if st.EpochsRun > spent {
			spent = st.EpochsRun
		}
		stopped = stopped || st.EarlyStopped
	}
	clone.prov = Provenance{
		FineTuned:    true,
		FreezeLayers: freeze,
		Epochs:       opts.Epochs,
		AdaptRows:    len(ds.Rows),
		EpochsSpent:  spent,
		EarlyStopped: stopped,
		Source:       opts.Source,
		Target:       opts.Target,
	}
	return clone, nil
}
