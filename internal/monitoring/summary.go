package monitoring

import (
	"errors"
	"math"
	"time"
)

// Summary aggregates many invocations of one function at one memory size
// into per-metric statistics — the representation the regression model
// consumes (paper §3.4 uses mean, standard deviation, and coefficient of
// variation per metric).
type Summary struct {
	// N is the number of aggregated invocations.
	N int
	// ColdStarts counts invocations that paid a cold start.
	ColdStarts int
	// Mean, Std and CoV hold the per-metric statistics over all samples.
	Mean Vector
	Std  Vector
	CoV  Vector
}

// ErrNoSamples is returned when summarizing zero invocations.
var ErrNoSamples = errors.New("monitoring: no samples to summarize")

// Summarize aggregates invocations into a Summary. It is the per-window
// hot path of continuous fleet ingestion, so all 25 metrics are reduced in
// two invocation-major passes (sums, then squared deviations) instead of 25
// per-metric gather-and-reduce loops — same accumulation order per metric
// as the stats-package formulas (mean = Σx/n, std = √(Σ(x-mean)²/(n-1)),
// CoV = std/mean with 0 for a zero mean), an order of magnitude fewer
// memory passes, and no per-call allocation.
func Summarize(invs []Invocation) (Summary, error) {
	if len(invs) == 0 {
		return Summary{}, ErrNoSamples
	}
	var sum Summary
	sum.N = len(invs)
	n := float64(len(invs))
	for i := range invs {
		sum.Mean.Add(&invs[i].Metrics)
		if invs[i].ColdStart {
			sum.ColdStarts++
		}
	}
	for id := 0; id < NumMetrics; id++ {
		sum.Mean[id] /= n
	}
	if sum.N > 1 {
		var ss Vector
		for i := range invs {
			for id := 0; id < NumMetrics; id++ {
				d := invs[i].Metrics[id] - sum.Mean[id]
				ss[id] += d * d
			}
		}
		for id := 0; id < NumMetrics; id++ {
			sum.Std[id] = math.Sqrt(ss[id] / (n - 1))
		}
	}
	for id := 0; id < NumMetrics; id++ {
		if sum.Mean[id] != 0 {
			sum.CoV[id] = sum.Std[id] / sum.Mean[id]
		}
	}
	return sum, nil
}

// MetricSamples extracts the raw per-invocation series for one metric, in
// invocation order — the input to the stability analysis (paper Fig. 3).
func MetricSamples(invs []Invocation, id MetricID) []float64 {
	out := make([]float64, len(invs))
	for i := range invs {
		out[i] = invs[i].Metrics[id]
	}
	return out
}

// Window returns the invocations whose start time falls in [from, to).
func Window(invs []Invocation, from, to time.Duration) []Invocation {
	out := make([]Invocation, 0, len(invs))
	for _, inv := range invs {
		if inv.Start >= from && inv.Start < to {
			out = append(out, inv)
		}
	}
	return out
}
