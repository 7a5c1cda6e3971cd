// Package optimizer implements the memory-size optimization of paper §3.5:
// cost and performance scores normalized to the per-function optimum,
// combined through a configurable tradeoff parameter t, and minimized over
// the memory-size grid.
//
//	S_cost(m)  = cost(m)  / min cost over all sizes
//	S_perf(m)  = time(m)  / min time over all sizes
//	S_total(m) = t·S_cost(m) + (1−t)·S_perf(m)
//	OptSize    = argmin S_total
//
// t = 0.75 prioritizes cost, t = 0.5 is neutral, t = 0.25 prioritizes
// performance (the three settings evaluated in Fig. 7 / Table 8). The paper
// recommends t = 0.75 as the most balanced configuration.
package optimizer

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"sizeless/internal/platform"
)

// Option is one memory size's scored configuration.
type Option struct {
	Memory platform.MemorySize
	// ExecTimeMs is the (measured or predicted) mean execution time.
	ExecTimeMs float64
	// Cost is the per-invocation cost in dollars.
	Cost float64
	// SCost, SPerf, STotal are the §3.5 scores (all ≥ 1 for SCost/SPerf).
	SCost  float64
	SPerf  float64
	STotal float64
}

// Recommendation is the optimizer's output: all scored options (ascending
// memory) and the selected size.
type Recommendation struct {
	Tradeoff float64
	Options  []Option
	Best     platform.MemorySize
}

// ErrNoSizes is returned when no execution times are supplied.
var ErrNoSizes = errors.New("optimizer: no memory sizes to score")

// Optimize scores every size in times and selects the S_total minimizer.
// times maps memory size → mean execution time in milliseconds; tradeoff is
// the t parameter in [0, 1]. Ties prefer the smaller memory size.
func Optimize(times map[platform.MemorySize]float64, pricing platform.Pricer, tradeoff float64) (Recommendation, error) {
	if len(times) == 0 {
		return Recommendation{}, ErrNoSizes
	}
	if pricing == nil {
		return Recommendation{}, errors.New("optimizer: nil pricer")
	}
	if !(tradeoff >= 0 && tradeoff <= 1) { // also rejects NaN
		return Recommendation{}, fmt.Errorf("optimizer: tradeoff %v outside [0,1]", tradeoff)
	}

	opts := make([]Option, 0, len(times))
	for m, ms := range times {
		opts = append(opts, Option{Memory: m, ExecTimeMs: ms})
	}
	sort.Slice(opts, func(i, j int) bool { return opts[i].Memory < opts[j].Memory })
	// Validate in ascending size order, so the error names the same size on
	// every run whatever the map's iteration order.
	for i := range opts {
		o := &opts[i]
		if o.ExecTimeMs <= 0 || math.IsNaN(o.ExecTimeMs) || math.IsInf(o.ExecTimeMs, 0) {
			return Recommendation{}, fmt.Errorf("optimizer: invalid execution time %v for %v", o.ExecTimeMs, o.Memory)
		}
		o.Cost = pricing.Cost(o.Memory, time.Duration(o.ExecTimeMs*float64(time.Millisecond)))
	}

	minCost, minTime := math.Inf(1), math.Inf(1)
	for _, o := range opts {
		minCost = math.Min(minCost, o.Cost)
		minTime = math.Min(minTime, o.ExecTimeMs)
	}
	best := 0
	for i := range opts {
		opts[i].SCost = opts[i].Cost / minCost
		opts[i].SPerf = opts[i].ExecTimeMs / minTime
		opts[i].STotal = tradeoff*opts[i].SCost + (1-tradeoff)*opts[i].SPerf
		if opts[i].STotal < opts[best].STotal {
			best = i
		}
	}
	return Recommendation{Tradeoff: tradeoff, Options: opts, Best: opts[best].Memory}, nil
}

// Rank returns the 1-based competition rank of `selected` in the
// ground-truth S_total ordering computed from measured times: 1 means the
// selection scores as well as the true optimum, 2 the next-best score, and
// so on (the x-axis of paper Fig. 7). Sizes with equal S_total share the
// best rank of their group ("1-2-2-4" ranking), so a selection tied with
// the optimum ranks 1 regardless of which size Optimize broke the tie to —
// an ordinal rank would charge the selector for a coin flip it cannot win.
func Rank(selected platform.MemorySize, measured map[platform.MemorySize]float64, pricing platform.Pricer, tradeoff float64) (int, error) {
	rec, err := Optimize(measured, pricing, tradeoff)
	if err != nil {
		return 0, err
	}
	ordered := append([]Option(nil), rec.Options...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].STotal < ordered[j].STotal })
	rank := 0
	for i, o := range ordered {
		if i == 0 || o.STotal > ordered[i-1].STotal {
			rank = i + 1
		}
		if o.Memory == selected {
			return rank, nil
		}
	}
	return 0, fmt.Errorf("optimizer: selected size %v not among measured sizes", selected)
}

// Benefits quantifies the effect of switching a function from size `from`
// to size `to` under measured execution times: the relative cost savings
// and speedup (positive = better), the Table-8 quantities.
type BenefitsReport struct {
	// CostSavings is (cost_from − cost_to) / cost_from.
	CostSavings float64
	// Speedup is (time_from − time_to) / time_from.
	Speedup float64
}

// Benefits computes the report. Both sizes must be present in measured.
func Benefits(measured map[platform.MemorySize]float64, pricing platform.Pricer, from, to platform.MemorySize) (BenefitsReport, error) {
	tf, okF := measured[from]
	tt, okT := measured[to]
	if !okF || !okT {
		return BenefitsReport{}, fmt.Errorf("optimizer: sizes %v/%v not measured", from, to)
	}
	if tf <= 0 || tt <= 0 {
		return BenefitsReport{}, errors.New("optimizer: non-positive execution times")
	}
	if pricing == nil {
		return BenefitsReport{}, errors.New("optimizer: nil pricer")
	}
	cf := pricing.Cost(from, time.Duration(tf*float64(time.Millisecond)))
	ct := pricing.Cost(to, time.Duration(tt*float64(time.Millisecond)))
	return BenefitsReport{
		CostSavings: (cf - ct) / cf,
		Speedup:     (tf - tt) / tf,
	}, nil
}
