package optimizer

import (
	"math"
	"testing"
	"testing/quick"

	"sizeless/internal/platform"
)

// cpuBoundTimes models a function whose time scales inversely with memory:
// cost is then nearly flat, so performance wins at large sizes.
func cpuBoundTimes() map[platform.MemorySize]float64 {
	out := make(map[platform.MemorySize]float64)
	for _, m := range platform.StandardSizes() {
		out[m] = 10000 * 1792 / math.Min(float64(m), 1792)
	}
	return out
}

// flatTimes models a network-bound function: time constant, cost grows with
// memory, so the smallest size wins on cost.
func flatTimes() map[platform.MemorySize]float64 {
	out := make(map[platform.MemorySize]float64)
	for _, m := range platform.StandardSizes() {
		out[m] = 300
	}
	return out
}

func TestOptimizeCPUBoundPrefersLargeSizes(t *testing.T) {
	pricing := platform.DefaultPricing()
	rec, err := Optimize(cpuBoundTimes(), pricing, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Best < platform.Mem2048 {
		t.Errorf("performance-priority CPU-bound selection = %v, want ≥ 2048MB", rec.Best)
	}
}

func TestOptimizeFlatPrefersSmallSizes(t *testing.T) {
	pricing := platform.DefaultPricing()
	for _, tradeoff := range []float64{0.25, 0.5, 0.75} {
		rec, err := Optimize(flatTimes(), pricing, tradeoff)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Best != platform.Mem128 {
			t.Errorf("t=%v: flat function selection = %v, want 128MB", tradeoff, rec.Best)
		}
	}
}

func TestScoresNormalizedToOne(t *testing.T) {
	pricing := platform.DefaultPricing()
	rec, err := Optimize(cpuBoundTimes(), pricing, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	minSCost, minSPerf := math.Inf(1), math.Inf(1)
	for _, o := range rec.Options {
		if o.SCost < 1-1e-12 || o.SPerf < 1-1e-12 {
			t.Errorf("scores must be ≥ 1: %+v", o)
		}
		minSCost = math.Min(minSCost, o.SCost)
		minSPerf = math.Min(minSPerf, o.SPerf)
	}
	if math.Abs(minSCost-1) > 1e-12 || math.Abs(minSPerf-1) > 1e-12 {
		t.Errorf("minimum scores should be exactly 1: %v, %v", minSCost, minSPerf)
	}
}

func TestTradeoffShiftsSelection(t *testing.T) {
	// Build a function where mid sizes are the sweet spot: strong speedup
	// up to 1024 then marginal gains at a steep price.
	times := map[platform.MemorySize]float64{
		128:  8000,
		256:  4000,
		512:  2000,
		1024: 1000,
		2048: 950,
		3008: 930,
	}
	pricing := platform.DefaultPricing()
	costRec, err := Optimize(times, pricing, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	perfRec, err := Optimize(times, pricing, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	if costRec.Best >= perfRec.Best {
		t.Errorf("cost priority chose %v, perf priority chose %v; want cost < perf", costRec.Best, perfRec.Best)
	}
	if perfRec.Best != platform.Mem3008 {
		t.Errorf("pure performance priority should select the fastest size, got %v", perfRec.Best)
	}
}

func TestOptimizeErrors(t *testing.T) {
	pricing := platform.DefaultPricing()
	if _, err := Optimize(nil, pricing, 0.5); err == nil {
		t.Error("empty times should error")
	}
	if _, err := Optimize(flatTimes(), pricing, -0.1); err == nil {
		t.Error("negative tradeoff should error")
	}
	if _, err := Optimize(flatTimes(), pricing, 1.1); err == nil {
		t.Error("tradeoff > 1 should error")
	}
	bad := map[platform.MemorySize]float64{128: -5}
	if _, err := Optimize(bad, pricing, 0.5); err == nil {
		t.Error("negative time should error")
	}
}

func TestRank(t *testing.T) {
	pricing := platform.DefaultPricing()
	measured := cpuBoundTimes()
	rec, err := Optimize(measured, pricing, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// The measured optimum ranks first.
	r, err := Rank(rec.Best, measured, pricing, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Errorf("true optimum ranks %d, want 1", r)
	}
	// A size not measured errors.
	if _, err := Rank(platform.MemorySize(192), measured, pricing, 0.5); err == nil {
		t.Error("unmeasured selection should error")
	}
	// Every measured size has a distinct rank in 1..6.
	seen := make(map[int]bool)
	for _, m := range platform.StandardSizes() {
		r, err := Rank(m, measured, pricing, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if r < 1 || r > 6 || seen[r] {
			t.Errorf("rank %d for %v invalid or duplicated", r, m)
		}
		seen[r] = true
	}
}

// TestOptimizeTiesPreferSmallerMemory pins the documented tie rule: when
// several sizes share the minimal S_total, Optimize selects the smallest.
// t = 0 on a flat (network-bound) function ties every size at S_total = 1
// exactly — pure performance scoring of identical times.
func TestOptimizeTiesPreferSmallerMemory(t *testing.T) {
	rec, err := Optimize(flatTimes(), platform.DefaultPricing(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range rec.Options {
		if o.STotal != 1 {
			t.Fatalf("S_total(%v) = %v, want an exact all-way tie at 1", o.Memory, o.STotal)
		}
	}
	if rec.Best != platform.Mem128 {
		t.Errorf("all-way tie selected %v, want the smallest size 128MB", rec.Best)
	}
}

// TestRankCompetitionTies: sizes with equal S_total share the best rank of
// their group. t = 0 makes S_total a pure function of time, so the times
// 100/200/200/400 score 1/2/2/4 exactly — ranks must be 1, 2, 2, 4.
func TestRankCompetitionTies(t *testing.T) {
	pricing := platform.DefaultPricing()
	measured := map[platform.MemorySize]float64{
		128:  100,
		256:  200,
		512:  200,
		1024: 400,
	}
	want := map[platform.MemorySize]int{128: 1, 256: 2, 512: 2, 1024: 4}
	for m, wantRank := range want {
		r, err := Rank(m, measured, pricing, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r != wantRank {
			t.Errorf("Rank(%v) = %d, want %d", m, r, wantRank)
		}
	}
	// An all-way tie ranks every size 1: no selection is charged for a
	// tie-break it could not influence.
	for _, m := range platform.StandardSizes() {
		r, err := Rank(m, flatTimes(), pricing, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r != 1 {
			t.Errorf("all-way tie: Rank(%v) = %d, want 1", m, r)
		}
	}
}

func TestBenefits(t *testing.T) {
	pricing := platform.DefaultPricing()
	measured := map[platform.MemorySize]float64{
		256: 1000,
		512: 400,
	}
	rep, err := Benefits(measured, pricing, 256, 512)
	if err != nil {
		t.Fatal(err)
	}
	// Speedup: (1000-400)/1000 = 0.6.
	if math.Abs(rep.Speedup-0.6) > 1e-12 {
		t.Errorf("speedup = %v, want 0.6", rep.Speedup)
	}
	// Cost: 512MB at 400ms is 0.5GB*0.4s vs 0.25GB*1.0s → cheaper.
	if rep.CostSavings <= 0 {
		t.Errorf("expected cost savings, got %v", rep.CostSavings)
	}
	// Identity move: zero deltas.
	rep, err = Benefits(measured, pricing, 256, 256)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Speedup != 0 || rep.CostSavings != 0 {
		t.Errorf("identity benefits = %+v, want zeros", rep)
	}
	if _, err := Benefits(measured, pricing, 128, 512); err == nil {
		t.Error("missing size should error")
	}
}

// Property: the selected size always minimizes S_total over the options.
func TestOptimizeSelectsMinimumProperty(t *testing.T) {
	pricing := platform.DefaultPricing()
	f := func(seed int64, tRaw uint8) bool {
		tradeoff := float64(tRaw%101) / 100
		times := make(map[platform.MemorySize]float64)
		s := seed
		for _, m := range platform.StandardSizes() {
			s = s*6364136223846793005 + 1442695040888963407 // LCG step
			times[m] = 10 + float64(uint64(s)%100000)/10
		}
		rec, err := Optimize(times, pricing, tradeoff)
		if err != nil {
			return false
		}
		var bestScore float64 = math.Inf(1)
		for _, o := range rec.Options {
			if o.STotal < bestScore {
				bestScore = o.STotal
			}
		}
		for _, o := range rec.Options {
			if o.Memory == rec.Best {
				return math.Abs(o.STotal-bestScore) < 1e-12
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestOptimizeInvalidTimeErrorIsDeterministic pins the validation order:
// with every time invalid, the error must name the smallest size on every
// call. Validating while ranging over the map named a random size.
func TestOptimizeInvalidTimeErrorIsDeterministic(t *testing.T) {
	times := make(map[platform.MemorySize]float64)
	for _, m := range platform.StandardSizes() {
		times[m] = math.NaN()
	}
	_, err := Optimize(times, platform.DefaultPricing(), 0.75)
	if err == nil {
		t.Fatal("all-NaN times accepted")
	}
	want := "optimizer: invalid execution time NaN for " + platform.Mem128.String()
	for i := 0; i < 50; i++ {
		if _, err := Optimize(times, platform.DefaultPricing(), 0.75); err == nil || err.Error() != want {
			t.Fatalf("call %d: err = %v, want %q", i, err, want)
		}
	}
}
