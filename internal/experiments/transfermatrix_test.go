package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	"sizeless/internal/platform"
)

// tinyMatrixScale keeps the 3×3 matrix affordable in unit tests: three
// providers × (train + adapt + test) campaigns on a four-size shared grid.
func tinyMatrixScale() Scale {
	return Scale{
		Name:           "tiny",
		TrainFunctions: 100,
		Rate:           10,
		Duration:       5 * time.Second,
		Hidden:         []int{48, 48},
		Epochs:         300,
		Seed:           1,
	}
}

func TestTransferMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("transfer matrix runs nine measurement campaigns")
	}
	lab := NewLab(tinyMatrixScale())
	res, err := TransferMatrix(context.Background(), lab)
	if err != nil {
		t.Fatal(err)
	}

	if len(res.Providers) != 3 {
		t.Fatalf("providers = %v, want the three built-ins", res.Providers)
	}
	if len(res.Cells) != 9 {
		t.Fatalf("cells = %d, want 9", len(res.Cells))
	}
	wantSizes := []platform.MemorySize{128, 256, 512, 1024}
	if len(res.Sizes) != len(wantSizes) {
		t.Fatalf("shared grid = %v, want %v", res.Sizes, wantSizes)
	}
	for i, m := range wantSizes {
		if res.Sizes[i] != m {
			t.Fatalf("shared grid = %v, want %v", res.Sizes, wantSizes)
		}
	}
	if res.Base != platform.Mem256 {
		t.Errorf("base = %v, want 256MB", res.Base)
	}

	for _, c := range res.Cells {
		for name, m := range map[string]float64{
			"stale": c.Stale.MAPE, "fine-tuned": c.FineTuned.MAPE, "from-scratch": c.FromScratch.MAPE,
		} {
			if m <= 0 {
				t.Errorf("%s→%s %s MAPE = %v, want positive", c.Source, c.Target, name, m)
			}
		}
		if c.Source == c.Target {
			// On the diagonal the stale model is already well-matched, so
			// fine-tuning can only add small-corpus overfitting noise; it
			// must stay the same order of magnitude, not wreck the model.
			if c.FineTuned.MAPE > c.Stale.MAPE*2.5 {
				t.Errorf("%s→%s diagonal fine-tune degraded badly: stale %.4f vs tuned %.4f",
					c.Source, c.Target, c.Stale.MAPE, c.FineTuned.MAPE)
			}
			continue
		}
		// The headline claim: across a provider change, adapting on a small
		// target corpus beats using the source model as-is.
		if c.FineTuned.MAPE >= c.Stale.MAPE {
			t.Errorf("%s→%s fine-tuned MAPE %.4f should beat stale %.4f",
				c.Source, c.Target, c.FineTuned.MAPE, c.Stale.MAPE)
		}
	}

	out := res.Render()
	for _, want := range []string{"transfer matrix", "aws-lambda", "gcp-cloudfunctions", "azure-functions", "fine-tuned"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
