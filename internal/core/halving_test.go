package core

import (
	"context"
	"sync/atomic"
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

// TestHalvingCancelMidRoundReturnsPromptly cancels a halving search in the
// middle of its first round and asserts it surfaces the context error with
// no partial result.
func TestHalvingCancelMidRoundReturnsPromptly(t *testing.T) {
	ds := testDataset(t)
	ctx := newCountdownCtx(25)
	res, err := GridSearchHalving(ctx, ds, halvingBase(), halvingTestGrid(40), HalvingOptions{Seed: 5})
	if err == nil {
		t.Fatal("cancelled halving should return an error")
	}
	if res != nil {
		t.Fatal("cancelled halving should not return a partial result")
	}
}

// TestTrainEarlyStoppingIsDeterministic: training and fine-tuning produce
// the same model bytes for any worker count and ensemble size, on the
// budget path and on the validation path with and without patience. The
// worker counts cover one slice per member (workers ≥ members), uneven
// slices (23 epochs over 2, 3 or 4 workers), and members that stop early
// in the middle of a slice.
func TestTrainEarlyStoppingIsDeterministic(t *testing.T) {
	ds := testDataset(t)
	adapt := ds.Subset([]int{3, 5, 8, 13, 21, 34, 55, 89})
	fingerprint := func(m *Model) string {
		t.Helper()
		fp, err := m.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	modes := []struct {
		name               string
		patience           int
		validationFraction float64
	}{
		{"budget", 0, 0},
		{"split", 0, 0.25},
		{"patience", 3, 0},
	}
	for _, ensemble := range []int{1, 2, 3, 5} {
		for _, mode := range modes {
			var want, wantTuned string
			var wantProv Provenance
			for _, workers := range []int{1, 2, 3, 4} {
				cfg := smallConfig(platform.Mem256)
				cfg.Hidden = []int{12, 12}
				cfg.Epochs = 23
				cfg.EnsembleSize = ensemble
				cfg.Patience = mode.patience
				cfg.ValidationFraction = mode.validationFraction
				cfg.Workers = workers
				m, err := Train(context.Background(), ds, cfg)
				if err != nil {
					t.Fatal(err)
				}
				tuned, err := FineTune(context.Background(), m, adapt, FineTuneOptions{
					Epochs:             29,
					Patience:           mode.patience,
					ValidationFraction: mode.validationFraction,
					Seed:               7,
					Workers:            workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				got, gotTuned, gotProv := fingerprint(m), fingerprint(tuned), tuned.Provenance()
				if workers == 1 {
					want, wantTuned, wantProv = got, gotTuned, gotProv
					continue
				}
				if got != want {
					t.Errorf("ensemble %d, %s: Train with %d workers = %s, with 1 = %s", ensemble, mode.name, workers, got, want)
				}
				if gotTuned != wantTuned || gotProv != wantProv {
					t.Errorf("ensemble %d, %s: FineTune with %d workers = %s %+v, with 1 = %s %+v",
						ensemble, mode.name, workers, gotTuned, gotProv, wantTuned, wantProv)
				}
			}
			if mode.patience > 0 && !wantProv.EarlyStopped {
				t.Errorf("ensemble %d: no member stopped early, so the sweep misses early finishes", ensemble)
			}
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
