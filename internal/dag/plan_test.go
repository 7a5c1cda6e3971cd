package dag

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"

	"sizeless/internal/optimizer"
	"sizeless/internal/platform"
	"sizeless/internal/xrand"
)

// coldlessConfig is a planner config with the cold-start model switched
// off, so end-to-end latency is exactly service time plus edge overhead —
// hand-computable.
func coldlessConfig(sizes ...platform.MemorySize) Config {
	pc := platform.DefaultConfig()
	pc.ColdStartBase = 0
	pc.ColdStartInit128 = 0
	return Config{Platform: pc, Sizes: sizes}
}

// edgeLatMs mirrors the model's per-edge latency for the test specs
// (PayloadKB 2 from spec()).
func edgeLatMs(tr Trigger) float64 {
	return DefaultTriggerProfiles()[tr].LatencyMs + 2*payloadTransferMsPerKB
}

func approx(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("%s = %v, want %v", what, got, want)
	}
}

// sizesOnly plans g without fusion. With one size on the grid it is the
// only assignment there is, so it shows the end-to-end model directly.
func sizesOnly(t *testing.T, g *Graph, cfg Config) *Plan {
	t.Helper()
	cmp, err := Compare(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cmp.SizesOnly
}

func TestCriticalPathChain(t *testing.T) {
	g := New("chain")
	mustAdd(t, g, spec("A", 20), flatTimes(10, 256))
	mustAdd(t, g, spec("B", 20), flatTimes(20, 256))
	mustAdd(t, g, spec("C", 20), flatTimes(30, 256))
	mustConnect(t, g, Edge{From: "A", To: "B"})
	mustConnect(t, g, Edge{From: "B", To: "C"})
	pl := sizesOnly(t, g, coldlessConfig(256))
	approx(t, "chain latency", pl.LatencyMs, 10+20+30+2*edgeLatMs(TriggerSync))
	if pl.InvocationsPerReq != 3 {
		t.Errorf("invocations = %v, want 3", pl.InvocationsPerReq)
	}
}

func TestCriticalPathDiamond(t *testing.T) {
	g := New("diamond")
	mustAdd(t, g, spec("A", 20), flatTimes(10, 256))
	mustAdd(t, g, spec("B", 20), flatTimes(40, 256)) // slow branch
	mustAdd(t, g, spec("C", 20), flatTimes(20, 256))
	mustAdd(t, g, spec("D", 20), flatTimes(10, 256))
	mustConnect(t, g, Edge{From: "A", To: "B"})
	mustConnect(t, g, Edge{From: "A", To: "C"})
	mustConnect(t, g, Edge{From: "B", To: "D"})
	mustConnect(t, g, Edge{From: "C", To: "D"})
	pl := sizesOnly(t, g, coldlessConfig(256))
	// The B branch dominates: A → B → D plus two sync hops.
	approx(t, "diamond latency", pl.LatencyMs, 10+40+10+2*edgeLatMs(TriggerSync))
	// Joins are event joins, not barriers: each branch triggers D once,
	// so D runs at rate 2 and the app makes five invocations per request.
	if pl.InvocationsPerReq != 5 {
		t.Errorf("invocations = %v, want 5", pl.InvocationsPerReq)
	}
}

func TestCriticalPathFanOutAndStandalone(t *testing.T) {
	g := New("fanout")
	mustAdd(t, g, spec("A", 20), flatTimes(10, 256))
	mustAdd(t, g, spec("B", 20), flatTimes(50, 256))
	mustAdd(t, g, spec("C", 20), flatTimes(10, 256))
	mustAdd(t, g, spec("S", 20), flatTimes(100, 256)) // standalone, dominates
	mustConnect(t, g, Edge{From: "A", To: "B", Trigger: TriggerQueue})
	mustConnect(t, g, Edge{From: "A", To: "C", Trigger: TriggerQueue})
	pl := sizesOnly(t, g, coldlessConfig(256))
	fanPath := 10 + 50 + edgeLatMs(TriggerQueue)
	if fanPath >= 100 {
		t.Fatal("test setup: standalone node must dominate")
	}
	approx(t, "fan-out latency", pl.LatencyMs, 100)
}

// chainGraph builds A→B→C over two sizes where the larger size is faster.
func chainGraph(t *testing.T) *Graph {
	g := New("fuse-chain")
	times := map[platform.MemorySize]float64{256: 40, 1024: 14}
	mustAdd(t, g, spec("A", 20), times)
	mustAdd(t, g, spec("B", 22), times)
	mustAdd(t, g, spec("C", 24), times)
	mustConnect(t, g, Edge{From: "A", To: "B"})
	mustConnect(t, g, Edge{From: "B", To: "C"})
	return g
}

func TestFusionNeverIncreasesInvocations(t *testing.T) {
	cmp, err := Compare(context.Background(), chainGraph(t), coldlessConfig(256, 1024))
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Fused.InvocationsPerReq > cmp.SizesOnly.InvocationsPerReq {
		t.Errorf("fusion increased invocations: %v > %v",
			cmp.Fused.InvocationsPerReq, cmp.SizesOnly.InvocationsPerReq)
	}
	// The search spaces nest (per-function ⊂ sizes-only ⊂ fused), so the
	// shared-normalization scores must be monotone.
	if cmp.SizesOnly.STotal > cmp.PerFunction.STotal+1e-12 {
		t.Errorf("sizes-only S_total %v worse than per-function %v",
			cmp.SizesOnly.STotal, cmp.PerFunction.STotal)
	}
	if cmp.Fused.STotal > cmp.SizesOnly.STotal+1e-12 {
		t.Errorf("fused S_total %v worse than sizes-only %v",
			cmp.Fused.STotal, cmp.SizesOnly.STotal)
	}
	// A clean sync chain should actually fuse: three request charges and
	// two hops collapse into one unit.
	if cmp.Fused.FusedUnits() == 0 {
		t.Error("sync chain did not fuse at all")
	}
	if cmp.Fused.CostPerReq > cmp.PerFunction.CostPerReq {
		t.Errorf("fused cost %v exceeds per-function cost %v",
			cmp.Fused.CostPerReq, cmp.PerFunction.CostPerReq)
	}
	if cmp.Fused.LatencyMs > cmp.PerFunction.LatencyMs {
		t.Errorf("fused latency %v exceeds per-function latency %v",
			cmp.Fused.LatencyMs, cmp.PerFunction.LatencyMs)
	}
}

func TestUnfusableGraphPlansIdentically(t *testing.T) {
	g := New("stream-chain")
	times := map[platform.MemorySize]float64{256: 40, 1024: 14}
	mustAdd(t, g, spec("A", 20), times)
	mustAdd(t, g, spec("B", 22), times)
	mustConnect(t, g, Edge{From: "A", To: "B", Trigger: TriggerStream})
	cmp, err := Compare(context.Background(), g, coldlessConfig(256, 1024))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cmp.Fused, cmp.SizesOnly) {
		t.Errorf("stream-only graph: fused plan %+v != sizes-only plan %+v", cmp.Fused, cmp.SizesOnly)
	}
	if cmp.Fused.FusedUnits() != 0 {
		t.Error("stream edge fused")
	}
}

func TestPerFunctionReproducesOptimizer(t *testing.T) {
	g := New("baseline")
	tA := map[platform.MemorySize]float64{128: 90, 256: 42, 512: 30, 1024: 28}
	tB := map[platform.MemorySize]float64{128: 12, 256: 11, 512: 11, 1024: 11}
	mustAdd(t, g, spec("A", 20), tA)
	mustAdd(t, g, spec("B", 20), tB)
	cfg := coldlessConfig(128, 256, 512, 1024)
	pl, err := PerFunction(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]platform.MemorySize{}
	for name, times := range map[string]map[platform.MemorySize]float64{"A": tA, "B": tB} {
		rec, err := optimizer.Optimize(times, cfg.Platform.Pricing, DefaultTradeoff)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = rec.Best
	}
	for _, gp := range pl.Groups {
		if len(gp.Functions) != 1 {
			t.Fatalf("per-function plan has fused group %v", gp.Functions)
		}
		if gp.Memory != want[gp.Functions[0]] {
			t.Errorf("%s sized %v, optimizer recommends %v", gp.Functions[0], gp.Memory, want[gp.Functions[0]])
		}
	}
}

func TestTiesPreferSmallerMemory(t *testing.T) {
	// Flat times and a request-charge-only pricer make every size score
	// identically; the planner must resolve the tie to the smaller size,
	// mirroring the per-function optimizer's documented rule.
	pc := platform.DefaultConfig()
	pc.ColdStartBase = 0
	pc.ColdStartInit128 = 0
	pc.Pricing = platform.PricingModel{RequestCharge: 2e-7}
	g := New("tie")
	mustAdd(t, g, spec("A", 20), flatTimes(10, 128, 256, 512))
	cmp, err := Compare(context.Background(), g, Config{Platform: pc, Sizes: []platform.MemorySize{128, 256, 512}})
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range []*Plan{cmp.PerFunction, cmp.SizesOnly, cmp.Fused} {
		if pl.Groups[0].Memory != 128 {
			t.Errorf("tie resolved to %v, want 128", pl.Groups[0].Memory)
		}
	}
}

// planningGraph is a mid-size graph with two fusable chains, a fan-out,
// and the full cold-start model enabled — the determinism workload.
func planningGraph(t *testing.T) *Graph {
	g := New("det")
	sizes := []platform.MemorySize{128, 256, 512, 1024, 2048, 3008}
	mk := func(base float64) map[platform.MemorySize]float64 {
		out := make(map[platform.MemorySize]float64, len(sizes))
		for _, m := range sizes {
			speed := platform.DefaultResourceModel().SingleThreadSpeed(m)
			out[m] = base/speed + 2
		}
		return out
	}
	for i, n := range []string{"A", "B", "C", "D", "E", "F", "G"} {
		mustAdd(t, g, spec(n, 18+2*float64(i)), mk(8+3*float64(i)))
	}
	mustConnect(t, g, Edge{From: "A", To: "B"})
	mustConnect(t, g, Edge{From: "B", To: "C"})
	mustConnect(t, g, Edge{From: "C", To: "D", Trigger: TriggerQueue})
	mustConnect(t, g, Edge{From: "D", To: "E", Trigger: TriggerQueue})
	mustConnect(t, g, Edge{From: "A", To: "F", Calls: 2, Trigger: TriggerQueue})
	return g
}

func TestCompareNeverRegressesBaseline(t *testing.T) {
	// Compare's application-level plans are searched under the
	// no-regression rule: they may never cost more or be slower end to end
	// than the per-function baseline, on any graph (the baseline
	// assignment is always an admissible incumbent).
	cmp, err := Compare(context.Background(), planningGraph(t), Config{
		Platform: platform.DefaultConfig(),
		Sizes:    []platform.MemorySize{128, 256, 512, 1024, 2048, 3008},
		Rate:     30,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := cmp.PerFunction
	for _, pl := range []*Plan{cmp.SizesOnly, cmp.Fused} {
		if pl.CostPerReq > base.CostPerReq {
			t.Errorf("%v cost %v regresses baseline %v", pl.Groups, pl.CostPerReq, base.CostPerReq)
		}
		if pl.LatencyMs > base.LatencyMs {
			t.Errorf("%v latency %v regresses baseline %v", pl.Groups, pl.LatencyMs, base.LatencyMs)
		}
	}
}

func TestPlannerDeterministicAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	var plans []*Comparison
	for _, workers := range []int{1, 2, 7} {
		cfg := Config{
			Platform: platform.DefaultConfig(),
			Sizes:    []platform.MemorySize{128, 256, 512, 1024, 2048, 3008},
			Rate:     30,
			Seed:     7,
			Workers:  workers,
		}
		cmp, err := Compare(ctx, planningGraph(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, cmp)
	}
	for i := 1; i < len(plans); i++ {
		if !reflect.DeepEqual(plans[0], plans[i]) {
			t.Errorf("plan differs between worker counts: %+v vs %+v", plans[0], plans[i])
		}
	}
}

func TestSeedChangesColdSchedulesOnly(t *testing.T) {
	// Different seeds may shift cold fractions but must still produce a
	// valid plan; the same seed must reproduce bit-identically.
	ctx := context.Background()
	mk := func(seed int64) *Comparison {
		cmp, err := Compare(ctx, planningGraph(t), Config{
			Platform: platform.DefaultConfig(),
			Sizes:    []platform.MemorySize{128, 256, 512, 1024},
			Rate:     30,
			Seed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cmp
	}
	if !reflect.DeepEqual(mk(3), mk(3)) {
		t.Error("same seed produced different plans")
	}
}

func TestConfigValidation(t *testing.T) {
	g := New("cfg")
	mustAdd(t, g, spec("A", 20), flatTimes(10, 256))
	ctx := context.Background()
	if _, err := Compare(ctx, nil, coldlessConfig(256)); err == nil {
		t.Error("nil graph accepted")
	}
	bad := coldlessConfig(256)
	bad.Tradeoff = 1.5
	if _, err := Compare(ctx, g, bad); err == nil {
		t.Error("tradeoff 1.5 accepted")
	}
	bad.Tradeoff = math.NaN()
	if _, err := Compare(ctx, g, bad); err == nil {
		t.Error("NaN tradeoff accepted")
	}
	noPrice := coldlessConfig(256)
	noPrice.Platform.Pricing = nil
	if _, err := Compare(ctx, g, noPrice); err == nil {
		t.Error("nil pricer accepted")
	}
	// No overlap between Sizes and the node's times: planning must fail.
	if _, err := Compare(ctx, g, coldlessConfig(512)); err == nil {
		t.Error("infeasible grid accepted")
	}
}

// randomGraph builds a small random application: up to five functions
// with noisy per-size times on a random subset of up to four sizes, and
// random forward edges (so the graph is acyclic) with mixed triggers and
// fan-outs.
func randomGraph(t *testing.T, rng *xrand.Stream) (*Graph, []platform.MemorySize) {
	t.Helper()
	grid := []platform.MemorySize{128, 256, 512, 1024, 2048, 3008}
	var sizes []platform.MemorySize
	for _, i := range rng.Perm(len(grid))[:1+rng.Intn(4)] {
		sizes = append(sizes, grid[i])
	}
	res := platform.DefaultResourceModel()
	g := New("random")
	n := 1 + rng.Intn(5)
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('A' + i))
		work := rng.Uniform(5, 200)
		times := make(map[platform.MemorySize]float64, len(sizes))
		for _, m := range sizes {
			times[m] = work/res.SingleThreadSpeed(m)*rng.Uniform(0.8, 1.25) + rng.Uniform(0, 5)
		}
		mustAdd(t, g, spec(names[i], rng.Uniform(10, 60)), times)
	}
	triggers := []Trigger{TriggerSync, TriggerQueue, TriggerStream}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !rng.Bernoulli(0.45) {
				continue
			}
			e := Edge{From: names[i], To: names[j], Trigger: triggers[rng.Intn(len(triggers))]}
			if rng.Bernoulli(0.2) {
				e.Calls = 2
			}
			mustConnect(t, g, e)
		}
	}
	return g, sizes
}

// TestDescentNeverBeatsExhaustive is the planner oracle: on seeded random
// small DAGs, the coordinate-descent fallback (forced by MaxExhaustive 1)
// never scores better than the default exhaustive search in Compare's
// no-regression searches. A better
// descent score would mean the exhaustive search pruned away its own
// optimum. The test logs how far descent falls short.
func TestDescentNeverBeatsExhaustive(t *testing.T) {
	ctx := context.Background()
	rng := xrand.New(2024).Derive("planner-oracle")
	var gaps []float64
	for trial := 0; trial < 120; trial++ {
		g, sizes := randomGraph(t, rng)
		cfg := Config{
			Platform: platform.DefaultConfig(),
			Sizes:    sizes,
			Tradeoff: []float64{0.25, 0.5, 0.75, 1}[rng.Intn(4)],
			Rate:     rng.Uniform(2, 40),
			Seed:     int64(trial),
		}
		descCfg := cfg
		descCfg.MaxExhaustive = 1
		check := func(what string, exh, desc *Plan) {
			if desc.STotal < exh.STotal {
				t.Errorf("trial %d, %s: descent S_total %v beats exhaustive %v (%v vs %v)",
					trial, what, desc.STotal, exh.STotal, desc.Groups, exh.Groups)
			}
			gaps = append(gaps, desc.STotal/exh.STotal-1)
		}
		exhCmp, err := Compare(ctx, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		descCmp, err := Compare(ctx, g, descCfg)
		if err != nil {
			t.Fatal(err)
		}
		check("Compare sizes-only", exhCmp.SizesOnly, descCmp.SizesOnly)
		check("Compare fused", exhCmp.Fused, descCmp.Fused)
	}
	sort.Float64s(gaps)
	exact := sort.SearchFloat64s(gaps, 1e-12)
	q := func(p float64) float64 { return gaps[int(p*float64(len(gaps)-1))] }
	t.Logf("descent gap over %d searches: %d exact, median %.3g, p90 %.3g, p99 %.3g, max %.3g",
		len(gaps), exact, q(0.5), q(0.9), q(0.99), gaps[len(gaps)-1])
}
