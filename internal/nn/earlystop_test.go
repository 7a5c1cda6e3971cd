package nn

import (
	"context"
	"errors"
	"math"
	"testing"

	"sizeless/internal/xrand"
)

// xrandNew keeps the noisy-data helper readable.
func xrandNew(seed int64) *xrand.Stream { return xrand.New(seed).Derive("noise") }

// runSession trains net through one session that runs its whole epoch
// budget in a single slice, and returns the session's stats.
func runSession(ctx context.Context, net *Network, x, y [][]float64, epochs int, v Validation) (TrainStats, error) {
	s, err := net.NewSession(x, y, epochs, v)
	if err != nil {
		return TrainStats{}, err
	}
	_, err = s.Train(ctx, epochs, nil)
	return s.Stats(), err
}

// valTrajectory returns the validation loss after each of the first
// epochs epochs of a network built from cfg. The twin trains without a
// split, one epoch per session slice, and is scored with evalLoss after
// each slice: validation only reads the weights, so a validated run of
// the same config follows the same trajectory until it restores its best.
func valTrajectory(t *testing.T, cfg Config, trX, trY, vaX, vaY [][]float64, epochs int) []float64 {
	t.Helper()
	twin, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := twin.NewSession(trX, trY, epochs, Validation{})
	if err != nil {
		t.Fatal(err)
	}
	losses := make([]float64, epochs)
	for e := range losses {
		if _, err := s.Train(context.Background(), 1, nil); err != nil {
			t.Fatal(err)
		}
		if losses[e], err = evalLoss(twin, vaX, vaY); err != nil {
			t.Fatal(err)
		}
	}
	return losses
}

// splitVal carves the tail of (x, y) off as a validation split.
func splitVal(x, y [][]float64, nVal int) (trX, trY, vaX, vaY [][]float64) {
	cut := len(x) - nVal
	return x[:cut], y[:cut], x[cut:], y[cut:]
}

// TestBestValidationModelIsExactMinimum is the best-weights property test:
// with a validation split, the returned model's validation loss equals the
// minimum validation loss observed across all epochs — tracking is
// monotone and the snapshot restores exactly, bit-for-bit.
func TestBestValidationModelIsExactMinimum(t *testing.T) {
	for _, seed := range []int64{1, 7, 23, 91} {
		x, y := makeLinearData(120, 4, 2, seed)
		trX, trY, vaX, vaY := splitVal(x, y, 30)
		cfg := Config{
			Inputs: 4, Outputs: 2, Hidden: []int{12},
			Optimizer: Adam, Epochs: 60, Seed: seed,
		}
		net, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := runSession(context.Background(), net, trX, trY, 60, Validation{X: vaX, Y: vaY})
		if err != nil {
			t.Fatal(err)
		}
		best, bestEpoch := math.Inf(1), 0
		for i, v := range valTrajectory(t, cfg, trX, trY, vaX, vaY, st.EpochsRun) {
			if v < best {
				best = v
				bestEpoch = i + 1
			}
		}
		if st.ValLoss != best {
			t.Errorf("seed %d: ValLoss = %v, observed minimum %v", seed, st.ValLoss, best)
		}
		if st.BestEpoch != bestEpoch {
			t.Errorf("seed %d: BestEpoch = %d, observed argmin %d", seed, st.BestEpoch, bestEpoch)
		}
		// The restored weights reproduce the minimum bit-for-bit through
		// the independent evalLoss path.
		got, err := evalLoss(net, vaX, vaY)
		if err != nil {
			t.Fatal(err)
		}
		if got != best {
			t.Errorf("seed %d: returned model's validation loss %v != observed minimum %v", seed, got, best)
		}
	}
}

// makeNoisyData is makeLinearData plus Gaussian target noise — small
// training sets on it genuinely overfit, so validation loss stagnates and
// early stopping has something to stop.
func makeNoisyData(n, inputs, outputs int, noise float64, seed int64) (x, y [][]float64) {
	x, y = makeLinearData(n, inputs, outputs, seed)
	rng := xrandNew(seed)
	for s := range y {
		for o := range y[s] {
			y[s][o] += rng.NormFloat64() * noise
		}
	}
	return x, y
}

// TestEarlyStoppingStopsWithinPatience trains a small noisy problem with a
// tight patience and asserts training ends before the budget, exactly
// patience epochs after the last improvement.
func TestEarlyStoppingStopsWithinPatience(t *testing.T) {
	x, y := makeNoisyData(70, 3, 1, 0.3, 5)
	trX, trY, vaX, vaY := splitVal(x, y, 40)
	// The raised learning rate converges in tens of epochs and then
	// oscillates around the noise floor — the regime early stopping cuts.
	cfg := Config{Inputs: 3, Outputs: 1, Hidden: []int{16}, Epochs: 500, Seed: 11, LearningRate: 0.02}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const patience = 5
	st, err := runSession(context.Background(), net, trX, trY, 500, Validation{
		X: vaX, Y: vaY, Patience: patience,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.EarlyStopped {
		t.Fatal("500-epoch budget on a linear problem should early-stop")
	}
	if st.EpochsRun >= 500 {
		t.Errorf("EpochsRun = %d, want < budget", st.EpochsRun)
	}
	var lastImprove int
	best := math.Inf(1)
	for i, v := range valTrajectory(t, cfg, trX, trY, vaX, vaY, st.EpochsRun) {
		if v < best {
			best = v
			lastImprove = i + 1
		}
	}
	if st.EpochsRun != lastImprove+patience {
		t.Errorf("stopped at epoch %d, want last improvement %d + patience %d",
			st.EpochsRun, lastImprove, patience)
	}
	// Patience epochs passed since the best one, so the network must have
	// gone back to the best epoch's weights.
	if got, err := evalLoss(net, vaX, vaY); err != nil || got != best || st.ValLoss != best {
		t.Errorf("validation loss after the stop = %v (%v), ValLoss %v, want the best %v", got, err, st.ValLoss, best)
	}
}

// TestValidationWithoutPatienceRunsFullBudget: Patience 0 disables the
// stop but keeps best-weights selection.
func TestValidationWithoutPatienceRunsFullBudget(t *testing.T) {
	x, y := makeLinearData(100, 3, 1, 9)
	trX, trY, vaX, vaY := splitVal(x, y, 25)
	net, err := New(Config{Inputs: 3, Outputs: 1, Hidden: []int{8}, Epochs: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	st, err := runSession(context.Background(), net, trX, trY, 40, Validation{X: vaX, Y: vaY})
	if err != nil {
		t.Fatal(err)
	}
	if st.EpochsRun != 40 || st.EarlyStopped {
		t.Errorf("want full 40-epoch run without early stop, got %d (stopped=%v)", st.EpochsRun, st.EarlyStopped)
	}
	if st.BestEpoch == 0 || st.ValLoss <= 0 {
		t.Errorf("best-weights tracking inactive: best epoch %d, val loss %v", st.BestEpoch, st.ValLoss)
	}
}

// TestValidationErrors covers shape validation of the validation split.
func TestValidationErrors(t *testing.T) {
	x, y := makeLinearData(20, 2, 1, 1)
	net, err := New(Config{Inputs: 2, Outputs: 1, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.NewSession(x, y, 0, Validation{}); err == nil {
		t.Error("zero epochs should error")
	}
	if _, err := net.NewSession(x, y, 1, Validation{
		X: [][]float64{{1, 2}}, Y: [][]float64{{1}, {2}},
	}); err == nil {
		t.Error("mismatched validation lengths should error")
	}
	if _, err := net.NewSession(x, y, 1, Validation{
		X: [][]float64{{1}}, Y: [][]float64{{1}},
	}); err == nil {
		t.Error("wrong validation feature width should error")
	}
}

// TestCancelMidEarlyStopKeepsEpochBoundaryState cancels a validated
// training run mid-flight and asserts the engine returns promptly with the
// last completed epoch's weights — identical to an uninterrupted run of
// the same epoch count, with no partial best-weights restore.
func TestCancelMidEarlyStopKeepsEpochBoundaryState(t *testing.T) {
	x, y := makeLinearData(80, 3, 1, 23)
	trX, trY, vaX, vaY := splitVal(x, y, 20)
	cfg := Config{Inputs: 3, Outputs: 1, Hidden: []int{12}, Epochs: 50, Seed: 3}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const completed = 6
	ctx := &countdownCtx{Context: context.Background(), remaining: completed}
	if _, err := runSession(ctx, net, trX, trY, 50, Validation{X: vaX, Y: vaY, Patience: 3}); err == nil {
		t.Fatal("cancelled validated training should return the context error")
	}
	// Usable, and exactly at the last completed epoch boundary: the
	// weights match an uninterrupted plain run of `completed` epochs (no
	// best-weights restore happened on the cancellation path).
	if _, err := net.Predict(trX[0]); err != nil {
		t.Fatalf("predict after cancellation: %v", err)
	}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runSession(context.Background(), ref, trX, trY, completed, Validation{}); err != nil {
		t.Fatal(err)
	}
	for li := range net.layers {
		for i := range net.layers[li].w {
			if net.layers[li].w[i] != ref.layers[li].w[i] {
				t.Fatalf("cancelled run diverged from %d-epoch run at layer %d weight %d", completed, li, i)
			}
		}
	}
}

// TestFrozenLayersSurviveBestRestore: with frozen layers, the snapshot and
// restore cover only the adapting tail, and frozen weights stay
// bit-identical through a validated fine-tune.
func TestFrozenLayersSurviveBestRestore(t *testing.T) {
	x, y := makeLinearData(100, 3, 1, 41)
	trX, trY, vaX, vaY := splitVal(x, y, 25)
	net, err := New(Config{Inputs: 3, Outputs: 1, Hidden: []int{10, 10}, Epochs: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Train(context.Background(), trX, trY); err != nil {
		t.Fatal(err)
	}
	if err := net.SetFrozenLayers(1); err != nil {
		t.Fatal(err)
	}
	frozenBefore := append([]float64(nil), net.layers[0].w...)
	st, err := runSession(context.Background(), net, trX, trY, 100, Validation{
		X: vaX, Y: vaY, Patience: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.BestEpoch == 0 {
		t.Fatal("validated fine-tune should track a best epoch")
	}
	for i, w := range net.layers[0].w {
		if w != frozenBefore[i] {
			t.Fatalf("frozen layer weight changed at %d", i)
		}
	}
	got, err := evalLoss(net, vaX, vaY)
	if err != nil {
		t.Fatal(err)
	}
	if got != st.ValLoss {
		t.Errorf("restored validation loss %v != tracked best %v", got, st.ValLoss)
	}
}

// TestStagedTrainingMatchesContinuous asserts the persistent shuffle
// stream property: training one network in separate sessions of 10, 10
// and 20 epochs produces bit-identical weights to one session of the same
// 40 epochs, since the shuffle stream and optimizer moments live in the
// network, not the session.
func TestStagedTrainingMatchesContinuous(t *testing.T) {
	x, y := makeLinearData(90, 4, 2, 31)
	cfg := Config{Inputs: 4, Outputs: 2, Hidden: []int{14, 14}, Optimizer: Adam, Epochs: 40, Seed: 13}
	continuous, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runSession(context.Background(), continuous, x, y, 40, Validation{}); err != nil {
		t.Fatal(err)
	}
	staged, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, segment := range []int{10, 10, 20} {
		if _, err := runSession(context.Background(), staged, x, y, segment, Validation{}); err != nil {
			t.Fatal(err)
		}
	}
	for li := range continuous.layers {
		for i := range continuous.layers[li].w {
			if continuous.layers[li].w[i] != staged.layers[li].w[i] {
				t.Fatalf("staged training diverged at layer %d weight %d", li, i)
			}
		}
		for o := range continuous.layers[li].b {
			if continuous.layers[li].b[o] != staged.layers[li].b[o] {
				t.Fatalf("staged training diverged at layer %d bias %d", li, o)
			}
		}
	}
}

// TestSessionSlicesMatchOneCall: a session advanced in uneven slices, and
// resumed after a cancellation in the middle of one, trains exactly what
// one call over the whole budget trains, bit for bit: without a
// validation split (the persistent shuffle stream and optimizer moments
// carry over between slices), and with one, whether patience stops it or
// the budget runs out.
func TestSessionSlicesMatchOneCall(t *testing.T) {
	x, y := makeNoisyData(70, 3, 1, 0.3, 5)
	trX, trY, vaX, vaY := splitVal(x, y, 40)
	cfg := Config{Inputs: 3, Outputs: 1, Hidden: []int{16}, Epochs: 500, Seed: 11, LearningRate: 0.02}
	const budget = 120
	for _, c := range []struct {
		name string
		v    Validation
	}{
		{"no split", Validation{}},
		{"split", Validation{X: vaX, Y: vaY}},
		{"patience", Validation{X: vaX, Y: vaY, Patience: 5}},
	} {
		want, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantSt, err := runSession(context.Background(), want, trX, trY, budget, c.v)
		if err != nil {
			t.Fatal(err)
		}
		if stopped := c.v.Patience > 0; wantSt.EarlyStopped != stopped || wantSt.EpochsRun < 20 {
			t.Fatalf("%s: the reference run stopped early %v after %d epochs; the test needs %v after 20 or more",
				c.name, wantSt.EarlyStopped, wantSt.EpochsRun, stopped)
		}

		got, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := got.NewSession(trX, trY, budget, c.v)
		if err != nil {
			t.Fatal(err)
		}
		ts := &TrainScratch{}
		if done, err := s.Train(context.Background(), 7, ts); done || err != nil {
			t.Fatalf("%s: first slice finished=%v err=%v", c.name, done, err)
		}
		cancelled := &countdownCtx{Context: context.Background(), remaining: 3}
		if _, err := s.Train(cancelled, 10, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled slice returned %v", c.name, err)
		}
		if st := s.Stats(); st.EpochsRun != 10 {
			t.Fatalf("%s: %d epochs after the cancelled slice, want 10", c.name, st.EpochsRun)
		}
		for done := false; !done; {
			if done, err = s.Train(context.Background(), 13, ts); err != nil {
				t.Fatal(err)
			}
		}
		if st := s.Stats(); st != wantSt {
			t.Errorf("%s: sliced stats %+v, one call %+v", c.name, st, wantSt)
		}
		for li := range got.layers {
			for i := range got.layers[li].w {
				if got.layers[li].w[i] != want.layers[li].w[i] {
					t.Fatalf("%s: sliced run differs at layer %d weight %d", c.name, li, i)
				}
			}
			for o := range got.layers[li].b {
				if got.layers[li].b[o] != want.layers[li].b[o] {
					t.Fatalf("%s: sliced run differs at layer %d bias %d", c.name, li, o)
				}
			}
		}
		if done, err := s.Train(context.Background(), 5, nil); !done || err != nil || s.Stats() != wantSt {
			t.Errorf("%s: a finished session trained again (done=%v err=%v)", c.name, done, err)
		}
	}
}
