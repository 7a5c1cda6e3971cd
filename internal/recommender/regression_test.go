package recommender

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"sizeless/internal/fleetsynth"
	"sizeless/internal/monitoring"
	"sizeless/internal/xrand"
)

// TestEmptyIngestUnknownFunctionCreatesNoState pins the phantom-function
// fix: an empty window for a never-seen function must not register it.
// Before the fix, the ingest created a tracked record with Observed: 0
// that leaked into Fleet, Summarize, and the first-seen order forever.
func TestEmptyIngestUnknownFunctionCreatesNoState(t *testing.T) {
	svc, err := New(testModel(t), Config{MinWindow: 100})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	st, err := svc.Ingest(ctx, "ghost", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.FunctionID != "ghost" || st.Observed != 0 || st.HasRecommendation {
		t.Errorf("empty ingest returned %+v, want a zero status", st)
	}
	if _, err := svc.Status("ghost"); err == nil {
		t.Error("empty ingest registered an unknown function")
	}
	if got := svc.Summarize().Functions; got != 0 {
		t.Errorf("Summarize tracks %d functions after empty ingest, want 0", got)
	}
	if fleet := svc.Fleet(); len(fleet) != 0 {
		t.Errorf("Fleet lists %d functions after empty ingest, want 0", len(fleet))
	}

	// A later real ingest starts the function fresh — first-seen order must
	// date from the data, not the phantom probe.
	invs := fleetsynth.Window(xrand.New(7), 50, 1)
	if _, err := svc.Ingest(ctx, "real", invs); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Ingest(ctx, "ghost", nil); err != nil {
		t.Fatal(err)
	}
	fleet := svc.Fleet()
	if len(fleet) != 1 || fleet[0].FunctionID != "real" {
		t.Errorf("fleet = %+v, want exactly [real]", fleet)
	}

	// For a KNOWN function an empty ingest stays a readable no-op.
	st, err = svc.Ingest(ctx, "real", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Observed != 50 {
		t.Errorf("empty ingest for known function: observed = %d, want 50", st.Observed)
	}
}

// TestConfigValidationAtConstruction pins the lifecycle fix: an
// out-of-range tradeoff (or negative counts) must fail at New. Before the
// fix it surfaced only at the first recomputation — and because the failed
// ingest rolls back, every retry replayed the same doomed recompute,
// poisoning the function forever.
func TestConfigValidationAtConstruction(t *testing.T) {
	model := testModel(t)
	bad := []struct {
		name string
		cfg  Config
		want string
	}{
		{"tradeoff above one", Config{Tradeoff: 1.5}, "tradeoff"},
		{"negative tradeoff", Config{Tradeoff: -0.1}, "tradeoff"},
		{"negative workers", Config{Workers: -1}, "worker"},
		{"negative shards", Config{Shards: -2}, "shard"},
		{"negative min window", Config{MinWindow: -5}, "window"},
	}
	for _, tc := range bad {
		if _, err := New(model, tc.cfg); err == nil {
			t.Errorf("%s: New accepted %+v", tc.name, tc.cfg)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// The boundaries are valid: t = 1 (pure cost), and t = 0 when explicit.
	if _, err := New(model, Config{Tradeoff: 1}); err != nil {
		t.Errorf("tradeoff 1.0 rejected: %v", err)
	}
	svc, err := New(model, Config{TradeoffSet: true})
	if err != nil {
		t.Fatalf("explicit tradeoff 0.0 rejected: %v", err)
	}
	if svc.cfg.Tradeoff != 0 {
		t.Errorf("explicit t=0 became %v", svc.cfg.Tradeoff)
	}
}

// TestIngestBatchCancellationPreservesJobError pins the error-wrapping
// fix: when a batch is cut off mid-recompute, the returned error must keep
// the job's own error — which names the interrupted function — in the %w
// chain, not replace it with a bare ctx.Err().
func TestIngestBatchCancellationPreservesJobError(t *testing.T) {
	svc, err := New(testModel(t), Config{MinWindow: 100, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	invs := fleetsynth.Window(xrand.New(11), 120, 1)
	ctx := &countdownCtx{Context: context.Background()}
	// Workers: 1 runs the pool inline: one Err() check in the pool loop,
	// one at Ingest entry, and the third — the failing one — at the
	// recompute boundary.
	ctx.remaining.Store(2)
	_, err = svc.IngestBatch(ctx, map[string][]monitoring.Invocation{"solo-fn": invs})
	if err == nil {
		t.Fatal("cut-off batch should error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	msg := err.Error()
	for _, want := range []string{"batch ingest cancelled", "recompute cancelled", "solo-fn"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q lost context: missing %q", msg, want)
		}
	}
}

// TestBadInvocationDoesNotWedgeFunction pins the wedge fix: one invocation
// with a NaN execution time must be rejected on its own. Before the fix it
// was buffered, every later recompute failed on it, and each failure's
// rollback restored the poisoned pending window, so no good window could
// ever produce a recommendation again. The good windows hold 20
// invocations so that the later ones clear the drift detector's
// per-window minimum.
func TestBadInvocationDoesNotWedgeFunction(t *testing.T) {
	svc, err := New(testModel(t), Config{MinWindow: 10})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bad := fleetsynth.Window(xrand.New(3), 1, 1)
	bad[0].Metrics[monitoring.ExecutionTime] = math.NaN()
	_, err = svc.Ingest(ctx, "fn", bad)
	if err == nil || !strings.Contains(err.Error(), "invocation 0") {
		t.Errorf("NaN window: err = %v, want a rejection naming invocation 0", err)
	}
	if _, err := svc.Status("fn"); err == nil {
		t.Error("rejected first window registered the function")
	}
	for w := 0; w < 3; w++ {
		st, err := svc.Ingest(ctx, "fn", fleetsynth.Window(xrand.New(int64(10+w)), 20, 1))
		if err != nil {
			t.Fatalf("good window %d after a rejected one: %v", w, err)
		}
		if !st.HasRecommendation {
			t.Fatalf("good window %d: no recommendation", w)
		}
	}
}
