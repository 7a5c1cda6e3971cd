// Package fleetsynth fabricates synthetic monitoring windows for
// fleet-scale tests and benchmarks: cheap, deterministic lognormal metric
// vectors so those harnesses time the ingest pipeline (summarize → drift →
// predict → optimize) rather than the platform simulator. One definition
// keeps the benchmarks and the concurrency suite measuring the same
// workload shape. Stream and ColdFraction take their cold starts from
// internal/warmpool, the same instance lifecycle the harness deployments
// (internal/lambda) replay load through.
package fleetsynth

import (
	"fmt"

	"sizeless/internal/monitoring"
	"sizeless/internal/xrand"
)

// Window fabricates n invocations whose metrics are lognormal around
// 10·scale (and a positive execution time around 150·scale ms) — enough
// distributional texture for summary statistics and the drift detector.
// Scaling a window by ≥2-3× versus another reliably reads as drift.
func Window(rng *xrand.Stream, n int, scale float64) []monitoring.Invocation {
	invs := make([]monitoring.Invocation, n)
	for i := range invs {
		fill(rng, &invs[i], scale)
	}
	return invs
}

// fill draws one invocation's metric vector at the given scale — the single
// definition of the synthetic workload shape shared by Window and Stream.
func fill(rng *xrand.Stream, inv *monitoring.Invocation, scale float64) {
	for id := 0; id < monitoring.NumMetrics; id++ {
		inv.Metrics[id] = rng.LogNormal(10*scale, 0.2)
	}
	inv.Metrics[monitoring.ExecutionTime] = rng.LogNormal(150*scale, 0.15)
}

// Batch fabricates one window per function for a synthetic fleet, keyed
// "fleet-fn-%04d". Identical (nFns, window, seed, scale) arguments yield
// identical batches. It is a test fixture for the recommender, serve and
// root packages.
//
//lint:ignore deadexport test fixture shared by the recommender, serve and root packages' tests
func Batch(nFns, window int, seed int64, scale float64) map[string][]monitoring.Invocation {
	rng := xrand.New(seed)
	batch := make(map[string][]monitoring.Invocation, nFns)
	for i := 0; i < nFns; i++ {
		batch[fmt.Sprintf("fleet-fn-%04d", i)] = Window(rng.DeriveIndexed("fn", i), window, scale)
	}
	return batch
}
