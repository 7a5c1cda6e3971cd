package experiments

import (
	"context"
	"testing"

	"sizeless/internal/platform"
)

func TestAppMatrixFusionDominatesPerFunction(t *testing.T) {
	if testing.Short() {
		t.Skip("app matrix measures 27 functions across the grid")
	}
	ctx := context.Background()
	lab := NewLab(SmallScale())
	res, err := AppMatrix(ctx, lab, platform.AWSLambda())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("have %d cells, want 4 apps × 1 provider", len(res.Cells))
	}

	// Acceptance criterion: the sizes+fusion plan reaches end-to-end cost
	// ≤ the per-function-optimal plan at equal-or-better critical-path
	// latency on at least 3 of the 4 apps. Compare's no-regression rule
	// makes this hold on all four by construction; the ≥3 floor is the
	// documented contract.
	const eps = 1e-12
	dominated := 0
	for _, cell := range res.Cells {
		pf, fu := cell.Plans.PerFunction, cell.Plans.Fused
		if fu.CostPerReq <= pf.CostPerReq+eps && fu.LatencyMs <= pf.LatencyMs+eps {
			dominated++
		} else {
			t.Logf("%s: fused cost %v lat %v vs per-fn cost %v lat %v (not dominated)",
				cell.App, fu.CostPerReq, fu.LatencyMs, pf.CostPerReq, pf.LatencyMs)
		}
		// The search spaces nest, so the joint objective can never be
		// worse under the shared normalization.
		if fu.STotal > cell.Plans.SizesOnly.STotal+eps {
			t.Errorf("%s: fused S_total %v worse than sizes-only %v",
				cell.App, fu.STotal, cell.Plans.SizesOnly.STotal)
		}
		if fu.InvocationsPerReq > pf.InvocationsPerReq+eps {
			t.Errorf("%s: fusion increased invocations per request", cell.App)
		}
	}
	if dominated < 3 {
		t.Errorf("fused plan dominates per-function on %d of 4 apps, want ≥ 3", dominated)
	}

	// Apps whose chains scale with memory must actually fuse something on
	// aws-lambda. facial-recognition is deliberately absent: on aws-lambda
	// (and azure-functions) its chain is service-call-dominated, so fusing
	// at small memory regresses latency (the GC composition penalty exceeds
	// the saved trigger hops) and fusing at larger memory regresses cost —
	// declining to fuse is the joint optimizer's correct answer there. On
	// gcp-cloudfunctions it does fuse FaceSearch+IndexFace+PersistMetadata
	// at 256 MB. event-processing has no fusable chain at all.
	for _, app := range []string{"airline-booking", "hello-retail"} {
		cell := res.Cell(app, "aws-lambda")
		if cell == nil {
			t.Fatalf("missing cell for %s", app)
		}
		if cell.Plans.Fused.FusedUnits() == 0 {
			t.Errorf("%s: planner fused nothing", app)
		}
	}
}

func TestAppMatrixDeterministicPerSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("app matrix measures 27 functions across the grid")
	}
	ctx := context.Background()
	run := func() string {
		res, err := AppMatrix(ctx, NewLab(SmallScale()), platform.AWSLambda())
		if err != nil {
			t.Fatal(err)
		}
		return res.Render()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("app matrix render differs between identical runs:\n%s\n---\n%s", a, b)
	}
	if a == "" {
		t.Error("empty render")
	}
}
