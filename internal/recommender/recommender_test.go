package recommender

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"sizeless/internal/core"
	"sizeless/internal/dataset"
	"sizeless/internal/fngen"
	"sizeless/internal/harness"
	"sizeless/internal/lambda"
	"sizeless/internal/loadgen"
	"sizeless/internal/monitoring"
	"sizeless/internal/optimizer"
	"sizeless/internal/platform"
	"sizeless/internal/runtime"
	"sizeless/internal/services"
	"sizeless/internal/workload"
	"sizeless/internal/xrand"
)

var (
	modelOnce sync.Once
	modelVal  *core.Model
	modelErr  error
)

// testModel trains one shared predictor for the recommender tests.
func testModel(t *testing.T) *core.Model {
	t.Helper()
	modelOnce.Do(func() {
		gen := fngen.New(xrand.New(777), fngen.Options{})
		specs, err := gen.Generate(80)
		if err != nil {
			modelErr = err
			return
		}
		var ds *dataset.Dataset
		ds, modelErr = harness.BuildDataset(context.Background(), harness.Options{
			Rate: 10, Duration: 5 * time.Second, Seed: 3, Workers: 8,
		}, specs)
		if modelErr != nil {
			return
		}
		cfg := core.DefaultModelConfig(platform.Mem256)
		cfg.Hidden = []int{32, 32}
		cfg.Epochs = 150
		modelVal, modelErr = core.Train(context.Background(), ds, cfg)
	})
	if modelErr != nil {
		t.Fatalf("training test model: %v", modelErr)
	}
	return modelVal
}

// trace gathers invocations of spec at the model base size.
func trace(t *testing.T, spec *workload.Spec, seed int64) []monitoring.Invocation {
	t.Helper()
	env := runtime.NewEnv()
	store := monitoring.NewMemoryStore()
	dep, err := lambda.NewDeployment(env, spec, platform.Mem256, store, xrand.New(seed).Derive("dep"))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := loadgen.Poisson(20, 15*time.Second, xrand.New(seed).Derive("sched"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Run(sched); err != nil {
		t.Fatal(err)
	}
	return store.Invocations(spec.Name)
}

func apiSpec(calls int) *workload.Spec {
	return &workload.Spec{
		Name: "tracked-fn",
		Ops: []workload.Op{
			workload.CPUOp{Label: "work", WorkMs: 15, Parallelism: 1, TransientAllocMB: 5},
			workload.ServiceOp{Service: services.DynamoDB, Op: "Query", Calls: calls, RequestKB: 1, ResponseKB: 12},
		},
		BaseHeapMB: 28, CodeMB: 3, PayloadKB: 2, ResponseKB: 1, NoiseCoV: 0.1,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil model should error")
	}
	svc, err := New(testModel(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if svc.Base() != platform.Mem256 {
		t.Errorf("base = %v, want 256MB", svc.Base())
	}
}

func TestInitialRecommendationAfterMinWindow(t *testing.T) {
	svc, err := New(testModel(t), Config{MinWindow: 100})
	if err != nil {
		t.Fatal(err)
	}
	invs := trace(t, apiSpec(2), 10)
	if len(invs) < 200 {
		t.Fatalf("trace too short: %d", len(invs))
	}

	// Feed fewer than MinWindow: no recommendation yet.
	st, err := svc.Ingest(context.Background(), "fn-a", invs[:50])
	if err != nil {
		t.Fatal(err)
	}
	if st.HasRecommendation {
		t.Error("recommendation before MinWindow")
	}
	// Crossing MinWindow: recommendation appears.
	st, err = svc.Ingest(context.Background(), "fn-a", invs[50:150])
	if err != nil {
		t.Fatal(err)
	}
	if !st.HasRecommendation {
		t.Fatal("no recommendation after MinWindow")
	}
	if !platform.DefaultConfig().ValidSize(st.Recommendation.Best) {
		t.Errorf("invalid recommendation %v", st.Recommendation.Best)
	}
	if st.Recomputations != 0 {
		t.Errorf("initial recommendation should not count as recomputation")
	}
}

func TestStationaryTrafficDoesNotChurn(t *testing.T) {
	svc, err := New(testModel(t), Config{MinWindow: 100})
	if err != nil {
		t.Fatal(err)
	}
	invs := trace(t, apiSpec(2), 11)
	if _, err := svc.Ingest(context.Background(), "fn-b", invs[:100]); err != nil {
		t.Fatal(err)
	}
	// More windows of the SAME workload: no recomputations.
	for i := 100; i+100 <= len(invs) && i < 400; i += 100 {
		st, err := svc.Ingest(context.Background(), "fn-b", invs[i:i+100])
		if err != nil {
			t.Fatal(err)
		}
		if st.Recomputations != 0 {
			t.Fatalf("stationary traffic caused recomputation at window %d", i)
		}
	}
}

func TestWorkloadShiftTriggersRecompute(t *testing.T) {
	svc, err := New(testModel(t), Config{MinWindow: 100})
	if err != nil {
		t.Fatal(err)
	}
	before := trace(t, apiSpec(1), 12)
	// The workload shifts: four times the queries per request, bigger
	// responses — execution gets much longer.
	shifted := apiSpec(6)
	shifted.Name = "tracked-fn" // same function identity
	after := trace(t, shifted, 13)

	if _, err := svc.Ingest(context.Background(), "fn-c", before[:100]); err != nil {
		t.Fatal(err)
	}
	st, err := svc.Ingest(context.Background(), "fn-c", after[:100])
	if err != nil {
		t.Fatal(err)
	}
	if st.Recomputations != 1 {
		t.Fatalf("workload shift not detected: %d recomputations", st.Recomputations)
	}
	if len(st.LastDrift) == 0 {
		t.Error("drift metrics not recorded")
	}
	// Execution time must be among the shifted metrics.
	found := false
	for _, shift := range st.LastDrift {
		if shift.Metric == monitoring.ExecutionTime && shift.Delta > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("execution-time increase not in drift report: %+v", st.LastDrift)
	}
}

func TestFleetAndSummarize(t *testing.T) {
	svc, err := New(testModel(t), Config{MinWindow: 100})
	if err != nil {
		t.Fatal(err)
	}
	invs := trace(t, apiSpec(2), 14)
	if _, err := svc.Ingest(context.Background(), "fleet-1", invs[:100]); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Ingest(context.Background(), "fleet-2", invs[100:140]); err != nil {
		t.Fatal(err)
	}
	fleet := svc.Fleet()
	if len(fleet) != 2 {
		t.Fatalf("fleet size = %d, want 2", len(fleet))
	}
	if fleet[0].FunctionID != "fleet-1" || fleet[1].FunctionID != "fleet-2" {
		t.Error("fleet order should be first-seen")
	}
	sum := svc.Summarize()
	if sum.Functions != 2 || sum.WithRecommend != 1 {
		t.Errorf("summary = %+v, want 2 functions / 1 recommended", sum)
	}
	if _, err := svc.Status("fleet-1"); err != nil {
		t.Errorf("status lookup failed: %v", err)
	}
	if _, err := svc.Status("nope"); err == nil {
		t.Error("unknown function should error")
	}
	if _, err := svc.Ingest(context.Background(), "", nil); err == nil {
		t.Error("empty function ID should error")
	}
}

func TestConcurrentIngest(t *testing.T) {
	svc, err := New(testModel(t), Config{MinWindow: 50})
	if err != nil {
		t.Fatal(err)
	}
	invs := trace(t, apiSpec(2), 15)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := "conc-" + strings.Repeat("x", g+1)
			for i := 0; i+25 <= 200; i += 25 {
				if _, err := svc.Ingest(context.Background(), id, invs[i:i+25]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := svc.Summarize().Functions; got != 8 {
		t.Errorf("tracked %d functions, want 8", got)
	}
}

func TestIngestBatch(t *testing.T) {
	svc, err := New(testModel(t), Config{MinWindow: 100})
	if err != nil {
		t.Fatal(err)
	}
	invs := trace(t, apiSpec(2), 31)
	batch := map[string][]monitoring.Invocation{
		"batch-a": invs[:120],
		"batch-b": invs[120:240],
		"batch-c": invs[240:260], // below MinWindow: buffered only
	}
	statuses, err := svc.IngestBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 3 {
		t.Fatalf("got %d statuses, want 3", len(statuses))
	}
	if !statuses["batch-a"].HasRecommendation || !statuses["batch-b"].HasRecommendation {
		t.Error("full windows should produce recommendations")
	}
	if statuses["batch-c"].HasRecommendation {
		t.Error("short window should only buffer")
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.IngestBatch(cancelled, batch); err == nil {
		t.Error("cancelled batch ingest should error")
	}
}

func TestRecommendBatchMatchesSequential(t *testing.T) {
	model := testModel(t)
	svc, err := New(model, Config{})
	if err != nil {
		t.Fatal(err)
	}
	invs := trace(t, apiSpec(3), 32)
	var sums []monitoring.Summary
	for w := 0; w+100 <= len(invs) && len(sums) < 4; w += 100 {
		s, err := monitoring.Summarize(invs[w : w+100])
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, s)
	}
	recs, err := svc.RecommendBatch(context.Background(), sums)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(sums) {
		t.Fatalf("got %d recommendations, want %d", len(recs), len(sums))
	}
	for i, s := range sums {
		times, err := model.Predict(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := optimizer.Optimize(times, platform.DefaultPricing(), 0.75)
		if err != nil {
			t.Fatal(err)
		}
		if recs[i].Best != want.Best {
			t.Errorf("batch rec %d = %v, sequential = %v", i, recs[i].Best, want.Best)
		}
	}
}

func TestServiceWithTieredPricing(t *testing.T) {
	svc, err := New(testModel(t), Config{
		Pricing: platform.GCPCloudFunctions().Platform().Pricing,
	})
	if err != nil {
		t.Fatal(err)
	}
	invs := trace(t, apiSpec(2), 33)
	st, err := svc.Ingest(context.Background(), "gcp-fn", invs[:120])
	if err != nil {
		t.Fatal(err)
	}
	if !st.HasRecommendation {
		t.Fatal("expected a recommendation")
	}
	if !platform.DefaultConfig().ValidSize(st.Recommendation.Best) {
		t.Errorf("recommendation %v invalid", st.Recommendation.Best)
	}
}

func TestExplicitZeroTradeoff(t *testing.T) {
	// t = 0 (pure performance) must survive defaulting when set, and a
	// nil Tradeoff must default to 0.75.
	svc, err := New(testModel(t), Config{Tradeoff: tradeoff(0)})
	if err != nil {
		t.Fatal(err)
	}
	invs := trace(t, apiSpec(2), 34)
	sum, err := monitoring.Summarize(invs[:100])
	if err != nil {
		t.Fatal(err)
	}
	recs, err := svc.RecommendBatch(context.Background(), []monitoring.Summary{sum})
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Tradeoff != 0 {
		t.Errorf("explicit t=0 became %v", recs[0].Tradeoff)
	}

	def, err := New(testModel(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err = def.RecommendBatch(context.Background(), []monitoring.Summary{sum})
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Tradeoff != 0.75 {
		t.Errorf("unset tradeoff defaulted to %v, want 0.75", recs[0].Tradeoff)
	}
}
