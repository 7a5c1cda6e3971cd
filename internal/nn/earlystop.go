package nn

import "context"

// Validation configures the per-epoch validation hook of
// TrainWithValidation: a held-out split scored after every epoch, with
// best-weights tracking and optional patience-based early stopping.
type Validation struct {
	// X, Y are the held-out validation samples. Empty X disables the hook
	// entirely (TrainWithValidation then degrades to TrainWith).
	X, Y [][]float64
	// Patience stops training after this many consecutive epochs without a
	// validation improvement of more than MinDelta. Zero (or negative)
	// never stops early: the full epoch budget runs, but the returned
	// network is still the best-validation snapshot.
	Patience int
	// MinDelta is the improvement the patience counter requires to reset
	// (default 0: any strict improvement counts). It does not affect
	// best-weights tracking, which always follows the strict minimum.
	MinDelta float64
	// Observer, when non-nil, receives every epoch's (1-based) index,
	// training loss, and validation loss — the per-epoch hook behind
	// search instrumentation. It must not retain the slices it closes
	// over or train the network reentrantly.
	Observer func(epoch int, trainLoss, valLoss float64)
}

// TrainStats reports what a validated training run did.
type TrainStats struct {
	// TrainLoss is the mean training loss of the last epoch run.
	TrainLoss float64
	// ValLoss is the minimum validation loss observed across all epochs —
	// exactly the loss of the weights the network holds on return. Zero
	// when no validation split was given.
	ValLoss float64
	// BestEpoch is the 1-based epoch that produced ValLoss (0 without a
	// validation split).
	BestEpoch int
	// EpochsRun counts the epochs actually trained (≤ the budget when
	// early stopping triggered).
	EpochsRun int
	// EarlyStopped reports whether patience ended training before the
	// budget was exhausted.
	EarlyStopped bool
}

// TrainWithValidation trains like TrainWith but scores v's held-out split
// after every epoch, snapshots the best weights seen, and stops after
// v.Patience stagnant epochs. On return the network holds the
// best-validation weights, not the last epoch's: its loss on (v.X, v.Y)
// equals TrainStats.ValLoss bit-for-bit. Cancelling ctx returns the
// context's error and keeps the last completed epoch's weights, exactly
// like Train.
//
// The returned network is a finished artifact, not a staged-training
// checkpoint: restoring the best epoch's weights leaves the optimizer
// moments and shuffle stream at the *last* epoch run, so training it
// further resumes from a state no continuous run produces. The staged ≡
// continuous guarantee holds for TrainWith/TrainEpochs segments (no
// validation restore); put TrainWithValidation only at the end of a
// staged schedule. Nil ts borrows pooled scratch.
func (n *Network) TrainWithValidation(ctx context.Context, x, y [][]float64, epochs int, v Validation, ts *TrainScratch) (TrainStats, error) {
	var s Session
	if err := s.init(n, x, y, epochs, v); err != nil {
		return TrainStats{}, err
	}
	_, err := s.Train(ctx, epochs, ts)
	return s.st, err
}
