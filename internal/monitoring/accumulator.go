package monitoring

import (
	"math"
	"sync"
)

// Accumulator aggregates invocations into a Summary in a single streaming
// pass (Welford's algorithm per metric). The dataset-generation harness
// uses it instead of retaining per-invocation vectors: at the paper's full
// scale (216 million invocations) retention would be prohibitive.
//
// Accumulator is safe for concurrent use and implements Store, so it can be
// handed directly to a deployment as the monitoring sink.
type Accumulator struct {
	mu         sync.Mutex
	n          int
	coldStarts int
	mean       [NumMetrics]float64
	m2         [NumMetrics]float64
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator { return &Accumulator{} }

// Append implements Store; the function ID is ignored (one accumulator per
// function × memory measurement).
func (a *Accumulator) Append(_ string, inv Invocation) error {
	a.Add(inv)
	return nil
}

var _ Store = (*Accumulator)(nil)

// Add folds one invocation into the running statistics.
func (a *Accumulator) Add(inv Invocation) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n++
	if inv.ColdStart {
		a.coldStarts++
	}
	for i := 0; i < NumMetrics; i++ {
		x := inv.Metrics[i]
		delta := x - a.mean[i]
		a.mean[i] += delta / float64(a.n)
		a.m2[i] += delta * (x - a.mean[i])
	}
}

// Summary reduces the running statistics to a Summary. It returns
// ErrNoSamples when nothing was accumulated.
func (a *Accumulator) Summary() (Summary, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.n == 0 {
		return Summary{}, ErrNoSamples
	}
	var s Summary
	s.N = a.n
	s.ColdStarts = a.coldStarts
	for i := 0; i < NumMetrics; i++ {
		s.Mean[i] = a.mean[i]
		if a.n > 1 {
			s.Std[i] = math.Sqrt(a.m2[i] / float64(a.n-1))
		}
		if a.mean[i] != 0 {
			s.CoV[i] = s.Std[i] / a.mean[i]
		}
	}
	return s, nil
}
