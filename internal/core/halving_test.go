package core

import (
	"context"
	"testing"

	"sizeless/internal/nn"
	"sizeless/internal/platform"
)

// halvingTestGrid is an 8-configuration grid whose epoch budget divides by
// 4, so the 1/4 → 1/2 → 1 schedule lands on whole epochs and the keep-half
// search spends exactly half the exhaustive budget.
func halvingTestGrid(epochs int) GridSpec {
	return GridSpec{
		Optimizers: []nn.Optimizer{nn.Adam, nn.SGD},
		Losses:     []nn.Loss{nn.MSE, nn.MAPE},
		Epochs:     []int{epochs},
		Neurons:    []int{16},
		L2s:        []float64{0, 0.01},
		Layers:     []int{2},
	}
}

func halvingBase() ModelConfig {
	base := smallConfig(platform.Mem256)
	base.EnsembleSize = 1
	base.Workers = 1
	return base
}

// TestHalvingKeepAllMatchesContinuousExhaustive pins the staged-equals-
// continuous property end to end: halving with elimination disabled
// (every configuration trains its full budget in 1/4 → 1/2 → 1 segments)
// reproduces the exhaustive search (every configuration trained once,
// continuously, at full budget) — same winner, and bit-identical
// validation scores for every configuration.
func TestHalvingKeepAllMatchesContinuousExhaustive(t *testing.T) {
	ds := testDataset(t)
	grid := halvingTestGrid(40)
	staged, err := GridSearchHalving(context.Background(), ds, halvingBase(), grid,
		HalvingOptions{KeepAll: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	continuous, err := GridSearchHalving(context.Background(), ds, halvingBase(), grid,
		HalvingOptions{StartFraction: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(staged.Scores) != grid.Size() || len(continuous.Scores) != grid.Size() {
		t.Fatalf("score counts %d/%d, want %d", len(staged.Scores), len(continuous.Scores), grid.Size())
	}
	if staged.TotalEpochs != continuous.TotalEpochs {
		t.Errorf("keep-all spent %d epochs, continuous %d — both must equal the full budget",
			staged.TotalEpochs, continuous.TotalEpochs)
	}
	if staged.TotalEpochs != staged.ExhaustiveEpochs {
		t.Errorf("keep-all spent %d epochs, full budget is %d", staged.TotalEpochs, staged.ExhaustiveEpochs)
	}
	for i := range staged.Scores {
		a, b := staged.Scores[i], continuous.Scores[i]
		if a.ValMSE != b.ValMSE {
			t.Errorf("rank %d: staged val MSE %v != continuous %v (staged training must be bit-identical)",
				i, a.ValMSE, b.ValMSE)
		}
		if string(a.Config.Optimizer) != string(b.Config.Optimizer) || string(a.Config.Loss) != string(b.Config.Loss) ||
			a.Config.L2 != b.Config.L2 {
			t.Errorf("rank %d: staged and continuous rankings disagree on the configuration", i)
		}
	}
}

// TestHalvingSpendsHalfAndFindsNearWinner is the headline acceptance
// property: elimination-on halving spends no more than half the exhaustive
// epoch budget, and its winner's validation MSE is within 5% of the
// exhaustive winner's.
func TestHalvingSpendsHalfAndFindsNearWinner(t *testing.T) {
	ds := testDataset(t)
	// A 40-epoch budget is divisible by 4, so the 1/4 → 1/2 → 1 schedule
	// lands on whole epochs.
	grid := halvingTestGrid(40)
	exhaustive, err := GridSearchHalving(context.Background(), ds, halvingBase(), grid,
		HalvingOptions{KeepAll: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	halved, err := GridSearchHalving(context.Background(), ds, halvingBase(), grid,
		HalvingOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if 2*halved.TotalEpochs > exhaustive.TotalEpochs {
		t.Errorf("halving spent %d epochs, more than half of exhaustive %d",
			halved.TotalEpochs, exhaustive.TotalEpochs)
	}
	if halved.ExhaustiveEpochs != exhaustive.TotalEpochs {
		t.Errorf("recorded exhaustive budget %d != measured exhaustive spend %d",
			halved.ExhaustiveEpochs, exhaustive.TotalEpochs)
	}
	exWin, haWin := exhaustive.Winner(), halved.Winner()
	if haWin.ValMSE > exWin.ValMSE*1.05 {
		t.Errorf("halving winner val MSE %v more than 5%% above exhaustive winner %v",
			haWin.ValMSE, exWin.ValMSE)
	}
	// Three rounds: 1/4, 1/2, 1.
	if len(halved.Rounds) != 3 {
		t.Fatalf("got %d rounds, want 3", len(halved.Rounds))
	}
	if halved.Rounds[0].Configs != 8 || halved.Rounds[1].Configs != 4 || halved.Rounds[2].Configs != 2 {
		t.Errorf("survivor schedule %d/%d/%d, want 8/4/2",
			halved.Rounds[0].Configs, halved.Rounds[1].Configs, halved.Rounds[2].Configs)
	}
}

// TestHalvingWorkerCountInvariant: the survivor sequence — which
// configuration fell in which round, and every score — is identical for
// any worker count. Runs under -race in CI, doubling as the concurrency
// soak for the halving pool fan-out.
func TestHalvingWorkerCountInvariant(t *testing.T) {
	ds := testDataset(t)
	grid := halvingTestGrid(20)
	run := func(workers int) *HalvingResult {
		base := halvingBase()
		base.Workers = workers
		res, err := GridSearchHalving(context.Background(), ds, base, grid, HalvingOptions{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sequential := run(1)
	concurrent := run(4)
	for i := range sequential.Scores {
		a, b := sequential.Scores[i], concurrent.Scores[i]
		if a.ValMSE != b.ValMSE || a.Eliminated != b.Eliminated || a.EpochsSpent != b.EpochsSpent {
			t.Fatalf("rank %d differs across worker counts: %+v vs %+v", i,
				struct {
					V    float64
					E, S int
				}{a.ValMSE, a.Eliminated, a.EpochsSpent},
				struct {
					V    float64
					E, S int
				}{b.ValMSE, b.Eliminated, b.EpochsSpent})
		}
	}
	if sequential.TotalEpochs != concurrent.TotalEpochs {
		t.Errorf("total epochs differ across worker counts: %d vs %d",
			sequential.TotalEpochs, concurrent.TotalEpochs)
	}
}

// countdownCtx trips its Err after a fixed number of polls — deterministic
// mid-flight cancellation (the engine polls once per epoch, the pool once
// per job).
type countdownCtx struct {
	context.Context
	remaining int
}

func (c *countdownCtx) Err() error {
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

// TestHalvingCancelMidRoundReturnsPromptly cancels a halving search in the
// middle of its first round and asserts it surfaces the context error with
// no partial result.
func TestHalvingCancelMidRoundReturnsPromptly(t *testing.T) {
	ds := testDataset(t)
	ctx := &countdownCtx{Context: context.Background(), remaining: 25}
	res, err := GridSearchHalving(ctx, ds, halvingBase(), halvingTestGrid(40), HalvingOptions{Seed: 5})
	if err == nil {
		t.Fatal("cancelled halving should return an error")
	}
	if res != nil {
		t.Fatal("cancelled halving should not return a partial result")
	}
}

// TestTrainEarlyStoppingIsDeterministic: the Patience/ValidationFraction
// knobs produce the same model for any worker count, and the validation
// split leaves the training path deterministic end to end.
func TestTrainEarlyStoppingIsDeterministic(t *testing.T) {
	ds := testDataset(t)
	cfg := smallConfig(platform.Mem256)
	cfg.Epochs = 150
	cfg.Patience = 8
	train := func(workers int) *Model {
		c := cfg
		c.Workers = workers
		m, err := Train(context.Background(), ds, c)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := train(1), train(3)
	s := ds.Rows[0].Summaries[platform.Mem256]
	pa, err := a.PredictRatios(s)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.PredictRatios(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("early-stopped training differs across worker counts at target %d", i)
		}
	}
}

// TestTrainValidationFractionRejected pins the config guard.
func TestTrainValidationFractionRejected(t *testing.T) {
	ds := testDataset(t)
	cfg := smallConfig(platform.Mem256)
	cfg.ValidationFraction = 1.2
	if _, err := Train(context.Background(), ds, cfg); err == nil {
		t.Error("validation fraction above 1 should be rejected")
	}
}
