// Concurrency suite for the sharded Service: parallel mixed operations
// (race-clean under -race), deterministic shard distribution, and the
// atomic-commit guarantee for cancelled recomputations.
package recommender

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sizeless/internal/fleetsynth"
	"sizeless/internal/monitoring"
	"sizeless/internal/xrand"
)

// Windows and batches come from internal/fleetsynth — the shared
// synthetic-fleet fabricator also used by the ingest benchmarks.

// TestParallelMixedOperations hammers one Service with concurrent Ingest,
// IngestBatch, Status, Fleet, and Summarize calls. Run under -race in CI;
// the assertions here check the final state is consistent.
func TestParallelMixedOperations(t *testing.T) {
	svc, err := New(testModel(t), Config{MinWindow: 60, Shards: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const ingestGoroutines = 6
	const fnsPerGoroutine = 4
	rng := xrand.New(41)
	windows := make([][]monitoring.Invocation, ingestGoroutines)
	for g := range windows {
		windows[g] = fleetsynth.Window(rng.DeriveIndexed("g", g), 240, 1)
	}
	batch := fleetsynth.Batch(20, 60, 42, 1)

	var wg sync.WaitGroup
	for g := 0; g < ingestGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for f := 0; f < fnsPerGoroutine; f++ {
				id := fmt.Sprintf("mixed-%d-%d", g, f)
				for w := 0; w+60 <= 240; w += 60 {
					if _, err := svc.Ingest(ctx, id, windows[g][w:w+60]); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := svc.IngestBatch(ctx, batch); err != nil {
			t.Error(err)
		}
	}()
	// Readers run concurrently with the writers above.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				svc.Summarize()
				svc.Fleet()
				_, _ = svc.Status("mixed-0-0")
			}
		}()
	}
	wg.Wait()

	want := ingestGoroutines*fnsPerGoroutine + len(batch)
	sum := svc.Summarize()
	if sum.Functions != want {
		t.Errorf("tracked %d functions, want %d", sum.Functions, want)
	}
	if sum.WithRecommend != want {
		t.Errorf("recommended %d functions, want %d (every window exceeded MinWindow)", sum.WithRecommend, want)
	}
	if got := len(svc.Fleet()); got != want {
		t.Errorf("fleet lists %d functions, want %d", got, want)
	}
	// Per-function invocation accounting survived the contention.
	for g := 0; g < ingestGoroutines; g++ {
		for f := 0; f < fnsPerGoroutine; f++ {
			st, err := svc.Status(fmt.Sprintf("mixed-%d-%d", g, f))
			if err != nil {
				t.Fatal(err)
			}
			if st.Observed != 240 {
				t.Errorf("%s observed %d invocations, want 240", st.FunctionID, st.Observed)
			}
		}
	}
}

// TestShardDistributionDeterministic pins the shard mapping to the FNV-1a
// spec (stable across processes and service instances) and checks the hash
// spreads a realistic fleet across all shards.
func TestShardDistributionDeterministic(t *testing.T) {
	model := testModel(t)
	a, err := New(model, Config{Shards: 32})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(model, Config{Shards: 32})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumShards() != 32 {
		t.Fatalf("NumShards = %d, want 32", a.NumShards())
	}

	counts := make([]int, a.NumShards())
	for i := 0; i < 2000; i++ {
		id := fmt.Sprintf("fleet-fn-%04d", i)
		got := a.shardIndex(id)
		// Same ID, same shard — on this instance and any other.
		if again := a.shardIndex(id); again != got {
			t.Fatalf("shardIndex(%q) unstable: %d then %d", id, got, again)
		}
		if other := b.shardIndex(id); other != got {
			t.Fatalf("shardIndex(%q) differs across instances: %d vs %d", id, got, other)
		}
		// The mapping is exactly 32-bit FNV-1a mod shards.
		h := fnv.New32a()
		h.Write([]byte(id))
		if want := int(h.Sum32() % 32); got != want {
			t.Fatalf("shardIndex(%q) = %d, want FNV-1a %d", id, got, want)
		}
		counts[got]++
	}
	mean := 2000 / len(counts)
	for idx, c := range counts {
		if c == 0 {
			t.Errorf("shard %d empty for a 2000-function fleet", idx)
		}
		if c > 4*mean {
			t.Errorf("shard %d holds %d functions (mean %d): hash badly skewed", idx, c, mean)
		}
	}
}

// countdownCtx reports no error for the first Err() calls and a cancelled
// context afterwards — it slips past Ingest's entry check so the
// cancellation lands exactly at the recompute boundary.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) >= 0 {
		return nil
	}
	return context.Canceled
}

// TestCancelledRecomputeCommitsNothing asserts the atomic-commit guarantee:
// a function whose recompute was cut off by cancellation keeps exactly its
// prior state — no observed-count bump, no buffered window, no half
// recommendation — and a brand-new function is not tracked at all.
func TestCancelledRecomputeCommitsNothing(t *testing.T) {
	svc, err := New(testModel(t), Config{MinWindow: 100})
	if err != nil {
		t.Fatal(err)
	}
	invs := fleetsynth.Window(xrand.New(43), 200, 1)

	// Existing function: buffer half a window first.
	if _, err := svc.Ingest(context.Background(), "cut-off", invs[:50]); err != nil {
		t.Fatal(err)
	}
	// This ingest crosses MinWindow, so it must recompute — and the
	// context expires right at the recompute check.
	ctx := &countdownCtx{Context: context.Background()}
	ctx.remaining.Store(1) // entry check passes, recompute check fails
	if _, err := svc.Ingest(ctx, "cut-off", invs[50:150]); err == nil {
		t.Fatal("cut-off recompute should error")
	}
	st, err := svc.Status("cut-off")
	if err != nil {
		t.Fatal(err)
	}
	if st.Observed != 50 {
		t.Errorf("observed = %d after rollback, want 50", st.Observed)
	}
	if st.HasRecommendation {
		t.Error("cut-off recompute committed a recommendation")
	}
	// Retrying with a live context succeeds from the restored state.
	st, err = svc.Ingest(context.Background(), "cut-off", invs[50:150])
	if err != nil {
		t.Fatal(err)
	}
	if !st.HasRecommendation || st.Observed != 150 {
		t.Errorf("retry after rollback: %+v, want recommendation at 150 observed", st)
	}

	// Brand-new function: a cut-off first ingest must not leak an empty
	// record into the fleet.
	before := svc.Summarize().Functions
	ctx = &countdownCtx{Context: context.Background()}
	ctx.remaining.Store(1)
	if _, err := svc.Ingest(ctx, "never-seen", invs[:150]); err == nil {
		t.Fatal("cut-off first ingest should error")
	}
	if got := svc.Summarize().Functions; got != before {
		t.Errorf("fleet grew from %d to %d despite rollback", before, got)
	}
	if _, err := svc.Status("never-seen"); err == nil {
		t.Error("rolled-back function should be unknown")
	}
	for _, fs := range svc.Fleet() {
		if fs.FunctionID == "never-seen" {
			t.Error("rolled-back function listed in fleet")
		}
	}
}

// TestIngestBatchCancellationPartialResults checks the batch-level
// backpressure contract: after a mid-batch cancellation, exactly the
// functions present in the result map are tracked, each fully committed.
func TestIngestBatchCancellationPartialResults(t *testing.T) {
	svc, err := New(testModel(t), Config{MinWindow: 100, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	batch := fleetsynth.Batch(24, 100, 44, 1)
	ctx := &countdownCtx{Context: context.Background()}
	// Each successful ingest burns 2 Err() checks (entry + recompute),
	// and each worker burns one more per loop turn; 20 lets a handful of
	// functions commit before the cancellation lands.
	ctx.remaining.Store(20)
	out, err := svc.IngestBatch(ctx, batch)
	if err == nil {
		t.Fatal("cancelled batch should error")
	}
	if len(out) == 0 || len(out) >= len(batch) {
		t.Fatalf("expected a partial result, got %d of %d", len(out), len(batch))
	}
	if got := svc.Summarize().Functions; got != len(out) {
		t.Errorf("tracked %d functions but returned %d statuses", got, len(out))
	}
	for id, st := range out {
		if !st.HasRecommendation || st.Observed != 100 {
			t.Errorf("%s: returned status not fully committed: %+v", id, st)
		}
		tracked, err := svc.Status(id)
		if err != nil {
			t.Fatalf("%s in result but not tracked: %v", id, err)
		}
		if tracked.Observed != 100 {
			t.Errorf("%s: tracked observed = %d, want 100", id, tracked.Observed)
		}
	}
	// The cancelled remainder ingests cleanly afterwards.
	out2, err := svc.IngestBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(out2) != len(batch) {
		t.Fatalf("retry ingested %d of %d", len(out2), len(batch))
	}
}

// TestIngestBatchPerFunctionErrorDoesNotStopBatch feeds one poisoned
// function — a window with a NaN invocation, which ValidateWindow rejects —
// alongside healthy ones.
func TestIngestBatchPerFunctionErrorDoesNotStopBatch(t *testing.T) {
	svc, err := New(testModel(t), Config{MinWindow: 20})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	healthy := fleetsynth.Batch(6, 40, 45, 1)
	// Establish recommendations so the poisoned function is already
	// tracked, then poison one invocation of its next window.
	if _, err := svc.IngestBatch(ctx, healthy); err != nil {
		t.Fatal(err)
	}
	second := fleetsynth.Batch(6, 40, 46, 1)
	poisonID := "fleet-fn-0003"
	second[poisonID][7].Metrics[monitoring.ExecutionTime] = math.NaN()
	out, err := svc.IngestBatch(ctx, second)
	if err == nil || !strings.Contains(err.Error(), "invocation 7") {
		t.Fatalf("poisoned function: err = %v, want a rejection naming invocation 7", err)
	}
	if len(out) != len(second)-1 {
		t.Errorf("healthy functions ingested: %d, want %d", len(out), len(second)-1)
	}
	if _, ok := out[poisonID]; ok {
		t.Error("poisoned function present in result map")
	}
	// Poisoned function rolled back: observed count unchanged.
	st, err := svc.Status(poisonID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Observed != 40 {
		t.Errorf("poisoned function observed = %d, want 40 (rolled back)", st.Observed)
	}
}
