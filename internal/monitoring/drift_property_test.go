// Property-based checks of the drift detector: reflexivity (a window never
// drifts against itself), sensitivity (scaling a metric beyond the effect
// threshold always drifts), and rank-statistic invariance (the report does
// not depend on invocation order).
package monitoring

import (
	"reflect"
	"testing"

	"sizeless/internal/xrand"
)

// propertyWindow fabricates a window of n invocations with lognormal
// metrics at the given scale.
func propertyWindow(rng *xrand.Stream, n int, scale float64) []Invocation {
	invs := make([]Invocation, n)
	for i := range invs {
		for id := 0; id < NumMetrics; id++ {
			invs[i].Metrics[id] = rng.LogNormal(10*scale, 0.15)
		}
		invs[i].Metrics[ExecutionTime] = rng.LogNormal(200*scale, 0.15)
	}
	return invs
}

// TestPropertySelfComparisonNeverDrifts: detectDrift(w, w) must report no
// shift for any window — identical samples are trivially same-distribution.
func TestPropertySelfComparisonNeverDrifts(t *testing.T) {
	rng := xrand.New(51)
	for trial := 0; trial < 30; trial++ {
		n := rng.UniformInt(20, 400)
		w := propertyWindow(rng.DeriveIndexed("w", trial), n, rng.Uniform(0.2, 5))
		report, err := detectDrift(w, w, DriftDetectorConfig{})
		if err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
		if report.Drifted() {
			t.Errorf("trial %d (n=%d): self-comparison drifted: %+v", trial, n, report.Shifted)
		}
	}
}

// TestPropertyScaledMetricAlwaysDrifts: multiplying one monitored metric's
// samples well beyond the Cliff's-delta threshold must always be reported,
// with the right direction.
func TestPropertyScaledMetricAlwaysDrifts(t *testing.T) {
	rng := xrand.New(52)
	metrics := DriftDetectorConfig{}.withDefaults().Metrics
	for trial := 0; trial < 30; trial++ {
		n := rng.UniformInt(40, 300)
		old := propertyWindow(rng.DeriveIndexed("old", trial), n, 1)
		target := metrics[trial%len(metrics)]
		factor := rng.Uniform(2.5, 10)
		shifted := make([]Invocation, len(old))
		copy(shifted, old)
		for i := range shifted {
			shifted[i].Metrics[target] *= factor
		}
		report, err := detectDrift(old, shifted, DriftDetectorConfig{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		found := false
		for _, s := range report.Shifted {
			if s.Metric == target {
				found = true
				if s.Delta <= 0 {
					t.Errorf("trial %d: %v scaled ×%.1f but delta %.3f not positive", trial, target, factor, s.Delta)
				}
			}
		}
		if !found {
			t.Errorf("trial %d: %v scaled ×%.1f (n=%d) not reported as shifted", trial, target, factor, n)
		}
	}
}

// TestPropertyReorderingInvariance: the detector is built on rank
// statistics, so permuting the invocations inside either window must not
// change the report at all.
func TestPropertyReorderingInvariance(t *testing.T) {
	rng := xrand.New(53)
	for trial := 0; trial < 20; trial++ {
		n := rng.UniformInt(30, 200)
		old := propertyWindow(rng.DeriveIndexed("old", trial), n, 1)
		// Half the trials drift (scaled new window), half are stationary.
		scale := 1.0
		if trial%2 == 0 {
			scale = 3
		}
		niw := propertyWindow(rng.DeriveIndexed("new", trial), n, scale)

		want, err := detectDrift(old, niw, DriftDetectorConfig{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		oldPerm := make([]Invocation, len(old))
		for i, j := range rng.Perm(len(old)) {
			oldPerm[i] = old[j]
		}
		newPerm := make([]Invocation, len(niw))
		for i, j := range rng.Perm(len(niw)) {
			newPerm[i] = niw[j]
		}
		got, err := detectDrift(oldPerm, newPerm, DriftDetectorConfig{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("trial %d: report changed under reordering:\nwant %+v\ngot  %+v", trial, want, got)
		}
	}
}
