package lambda

import (
	"testing"
	"time"

	"sizeless/internal/loadgen"
	"sizeless/internal/monitoring"
	"sizeless/internal/platform"
	"sizeless/internal/runtime"
	"sizeless/internal/services"
	"sizeless/internal/workload"
	"sizeless/internal/xrand"
)

func fastSpec() *workload.Spec {
	return &workload.Spec{
		Name:       "fast-fn",
		Ops:        []workload.Op{workload.CPUOp{Label: "w", WorkMs: 5, Parallelism: 1}},
		BaseHeapMB: 20,
		CodeMB:     2,
		NoiseCoV:   0.05,
	}
}

func slowSpec() *workload.Spec {
	return &workload.Spec{
		Name:       "slow-fn",
		Ops:        []workload.Op{workload.ServiceOp{Service: services.ExternalAPI, Op: "GET", Calls: 3, RequestKB: 1, ResponseKB: 8}},
		BaseHeapMB: 20,
		CodeMB:     2,
		NoiseCoV:   0.1,
	}
}

func TestRunServesAllArrivals(t *testing.T) {
	env := runtime.NewEnv()
	store := monitoring.NewMemoryStore()
	dep, err := NewDeployment(env, fastSpec(), platform.Mem1024, store, xrand.New(1).Derive("dep"))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := loadgen.Constant(10, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dep.Run(sched)
	if err != nil {
		t.Fatal(err)
	}
	if res.Invocations != len(sched) {
		t.Errorf("served %d of %d arrivals", res.Invocations, len(sched))
	}
	if res.Throttled != 0 {
		t.Errorf("unexpected throttling: %d", res.Throttled)
	}
	if got := len(store.Invocations("fast-fn")); got != len(sched) {
		t.Errorf("store has %d invocations, want %d", got, len(sched))
	}
}

func TestColdStartsOnlyWhenPoolEmptyOrBusy(t *testing.T) {
	env := runtime.NewEnv()
	store := monitoring.NewMemoryStore()
	dep, err := NewDeployment(env, fastSpec(), platform.Mem1024, store, xrand.New(2).Derive("dep"))
	if err != nil {
		t.Fatal(err)
	}
	// Sequential arrivals far apart: exactly one cold start.
	sched, err := loadgen.Constant(1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dep.Run(sched)
	if err != nil {
		t.Fatal(err)
	}
	if res.ColdStarts != 1 {
		t.Errorf("cold starts = %d, want 1 (sequential workload)", res.ColdStarts)
	}
	if res.MaxConcurrency != 1 {
		t.Errorf("max concurrency = %d, want 1", res.MaxConcurrency)
	}
	// Invocation records agree.
	invs := store.Invocations("fast-fn")
	cold := 0
	for _, inv := range invs {
		if inv.ColdStart {
			cold++
		}
	}
	if cold != 1 {
		t.Errorf("store records %d cold starts, want 1", cold)
	}
}

func TestBurstCausesColdStartStorm(t *testing.T) {
	env := runtime.NewEnv()
	store := monitoring.NewMemoryStore()
	dep, err := NewDeployment(env, slowSpec(), platform.Mem512, store, xrand.New(3).Derive("dep"))
	if err != nil {
		t.Fatal(err)
	}
	sched := loadgen.Burst(50, nil)
	res, err := dep.Run(sched)
	if err != nil {
		t.Fatal(err)
	}
	if res.ColdStarts != 50 {
		t.Errorf("cold starts = %d, want 50 (simultaneous arrivals)", res.ColdStarts)
	}
	if res.MaxConcurrency != 50 {
		t.Errorf("max concurrency = %d, want 50", res.MaxConcurrency)
	}
}

func TestConcurrencyLimitThrottles(t *testing.T) {
	env := runtime.NewEnv()
	env.Platform.ConcurrencyLimit = 10
	store := monitoring.NewMemoryStore()
	dep, err := NewDeployment(env, slowSpec(), platform.Mem512, store, xrand.New(4).Derive("dep"))
	if err != nil {
		t.Fatal(err)
	}
	sched := loadgen.Burst(25, nil)
	res, err := dep.Run(sched)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throttled != 15 {
		t.Errorf("throttled = %d, want 15", res.Throttled)
	}
	if res.Invocations != 10 {
		t.Errorf("served = %d, want 10", res.Invocations)
	}
	if dep.pool.Len() != 10 {
		t.Errorf("pool size = %d, want 10", dep.pool.Len())
	}
}

func TestKeepAliveReapsIdleInstances(t *testing.T) {
	env := runtime.NewEnv()
	env.Platform.KeepAlive = 30 * time.Second
	store := monitoring.NewMemoryStore()
	dep, err := NewDeployment(env, fastSpec(), platform.Mem1024, store, xrand.New(5).Derive("dep"))
	if err != nil {
		t.Fatal(err)
	}
	// Two arrivals separated by more than the keep-alive window: the
	// second must be a cold start on a fresh instance.
	sched := loadgen.Schedule{0, 2 * time.Minute}
	res, err := dep.Run(sched)
	if err != nil {
		t.Fatal(err)
	}
	if res.ColdStarts != 2 {
		t.Errorf("cold starts = %d, want 2 (keep-alive expiry)", res.ColdStarts)
	}
	if dep.pool.Len() != 1 {
		t.Errorf("pool size = %d, want 1 after reaping", dep.pool.Len())
	}
}

func TestWarmStartsFasterEndToEnd(t *testing.T) {
	// Cold invocations start later than their arrival (init delay); warm
	// ones do not. Verify via recorded start offsets.
	env := runtime.NewEnv()
	store := monitoring.NewMemoryStore()
	dep, err := NewDeployment(env, fastSpec(), platform.Mem1024, store, xrand.New(6).Derive("dep"))
	if err != nil {
		t.Fatal(err)
	}
	sched := loadgen.Schedule{0, 5 * time.Second}
	if _, err := dep.Run(sched); err != nil {
		t.Fatal(err)
	}
	invs := store.Invocations("fast-fn")
	if len(invs) != 2 {
		t.Fatalf("expected 2 invocations, got %d", len(invs))
	}
	if invs[0].Start <= 0 {
		t.Error("cold invocation should start after its arrival time (init delay)")
	}
	if invs[1].Start != 5*time.Second {
		t.Errorf("warm invocation should start at its arrival: %v", invs[1].Start)
	}
}

func TestNewDeploymentErrors(t *testing.T) {
	env := runtime.NewEnv()
	if _, err := NewDeployment(env, fastSpec(), platform.Mem1024, nil, xrand.New(1)); err == nil {
		t.Error("nil store should error")
	}
	if _, err := NewDeployment(env, &workload.Spec{}, platform.Mem1024, monitoring.NewMemoryStore(), xrand.New(1)); err == nil {
		t.Error("invalid spec should error")
	}
	if _, err := NewDeployment(env, fastSpec(), platform.MemorySize(100), monitoring.NewMemoryStore(), xrand.New(1)); err == nil {
		t.Error("invalid memory should error")
	}
	if _, err := NewDeployment(nil, fastSpec(), platform.Mem1024, monitoring.NewMemoryStore(), xrand.New(1)); err == nil {
		t.Error("nil env should error")
	}
	if _, err := NewDeployment(env, fastSpec(), platform.Mem1024, monitoring.NewMemoryStore(), nil); err == nil {
		t.Error("nil rng should error")
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() monitoring.Summary {
		env := runtime.NewEnv()
		acc := monitoring.NewAccumulator()
		dep, err := NewDeployment(env, slowSpec(), platform.Mem512, acc, xrand.New(9).Derive("dep"))
		if err != nil {
			t.Fatal(err)
		}
		sched, err := loadgen.Poisson(20, 30*time.Second, xrand.New(9).Derive("sched"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dep.Run(sched); err != nil {
			t.Fatal(err)
		}
		sum, err := acc.Summary()
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	a, b := run(), run()
	if a != b {
		t.Error("identical seeds must produce identical summaries")
	}
}

func TestAccumulatorMatchesMemoryStoreSummary(t *testing.T) {
	env := runtime.NewEnv()
	store := monitoring.NewMemoryStore()
	acc := monitoring.NewAccumulator()
	// Run the same deployment twice (same seeds) with different sinks.
	for _, sink := range []monitoring.Store{store, acc} {
		dep, err := NewDeployment(env, slowSpec(), platform.Mem512, sink, xrand.New(11).Derive("dep"))
		if err != nil {
			t.Fatal(err)
		}
		sched, err := loadgen.Poisson(10, 20*time.Second, xrand.New(11).Derive("sched"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dep.Run(sched); err != nil {
			t.Fatal(err)
		}
	}
	fromStore, err := monitoring.Summarize(store.Invocations("slow-fn"))
	if err != nil {
		t.Fatal(err)
	}
	fromAcc, err := acc.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if fromStore.N != fromAcc.N {
		t.Fatalf("sample counts differ: %d vs %d", fromStore.N, fromAcc.N)
	}
	for i := 0; i < monitoring.NumMetrics; i++ {
		id := monitoring.MetricID(i)
		if d := fromStore.Mean[i] - fromAcc.Mean[i]; d > 1e-6*fromStore.Mean[i]+1e-9 || d < -1e-6*fromStore.Mean[i]-1e-9 {
			t.Errorf("mean mismatch for %v: %v vs %v", id, fromStore.Mean[i], fromAcc.Mean[i])
		}
		if d := fromStore.Std[i] - fromAcc.Std[i]; d > 1e-6*fromStore.Std[i]+1e-9 || d < -1e-6*fromStore.Std[i]-1e-9 {
			t.Errorf("std mismatch for %v: %v vs %v", id, fromStore.Std[i], fromAcc.Std[i])
		}
	}
}
