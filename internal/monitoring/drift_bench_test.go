package monitoring

import (
	"testing"

	"sizeless/internal/xrand"
)

// benchWindow fabricates one n-invocation window with lognormal metrics.
func benchWindow(seed int64, n int, scale float64) []Invocation {
	rng := xrand.New(seed)
	invs := make([]Invocation, n)
	for i := range invs {
		for id := 0; id < NumMetrics; id++ {
			invs[i].Metrics[id] = rng.LogNormal(10*scale, 0.2)
		}
	}
	return invs
}

// The drift-sweep pair behind the BenchmarkFleetDrift delta: a stationary
// fleet re-checks the same baseline on every sweep, so the prepared
// variant sorts each baseline once per lifetime instead of once per sweep.

// BenchmarkDriftSweepResort is the uncached detector: 200 functions per
// sweep, every detectDrift call re-gathers and re-sorts the unchanged
// baseline alongside the new window.
func BenchmarkDriftSweepResort(b *testing.B) {
	const fns = 200
	baselines := make([][]Invocation, fns)
	windows := make([][]Invocation, fns)
	for i := range baselines {
		baselines[i] = benchWindow(int64(i), 100, 1)
		windows[i] = benchWindow(int64(i)+10_000, 100, 1)
	}
	cfg := DriftDetectorConfig{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for f := 0; f < fns; f++ {
			if _, err := detectDrift(baselines[f], windows[f], cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDriftSweepCached is the same sweep through the per-function
// rank cache: baselines are prepared once (off the clock, as a long-lived
// recommender amortizes them) and every sweep only sorts the new windows.
func BenchmarkDriftSweepCached(b *testing.B) {
	const fns = 200
	preps := make([]*PreparedBaseline, fns)
	windows := make([][]Invocation, fns)
	cfg := DriftDetectorConfig{}
	for i := range preps {
		preps[i] = PrepareBaseline(benchWindow(int64(i), 100, 1), cfg)
		windows[i] = benchWindow(int64(i)+10_000, 100, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for f := 0; f < fns; f++ {
			if _, err := DetectDriftAgainst(preps[f], windows[f], cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}
