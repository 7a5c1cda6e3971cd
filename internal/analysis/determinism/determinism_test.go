package determinism_test

import (
	"testing"

	"sizeless/internal/analysis/analysistest"
	"sizeless/internal/analysis/determinism"
)

func TestAnalyzer(t *testing.T) {
	// c/internal/nn: numeric-scoped violations plus a suppressed exception.
	// c/internal/nn/fastpath: shared-float accumulation in pool worker
	// closures flagged; per-worker slabs and integer counts silent.
	// c/internal/util: outside the numeric scope, asserted silent.
	// c/internal/loadgen: the scenario engine's scope — seedless draws and
	// map-order schedule assembly flagged.
	// c/internal/dag: the application planner's scope — per-seed plan
	// reproducibility forbids seedless jitter and map-order cost assembly.
	// c/internal/warmpool: the simulators' scope — map-order idle sums and
	// instance orderings flagged, the start-order slice scan silent.
	analysistest.Run(t, analysistest.TestData(t), determinism.Analyzer,
		"c/internal/nn", "c/internal/nn/fastpath", "c/internal/util", "c/internal/loadgen",
		"c/internal/dag", "c/internal/warmpool")
}
