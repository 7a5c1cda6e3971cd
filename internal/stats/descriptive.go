// Package stats provides the statistical machinery used throughout the
// Sizeless reproduction: descriptive statistics, the Mann-Whitney U test and
// Cliff's delta used by the metric-stability analysis (paper §3.3, Fig. 3),
// the regression-quality metrics used by the model evaluation (paper §3.4,
// Table 3), and least-squares fitting used by the BATCH and COSE baselines.
//
// All functions are pure and allocate at most O(n); none of them panic on
// well-formed input. Degenerate inputs (empty slices, zero variance) are
// reported through error returns or documented sentinel results rather than
// panics, following the "don't panic" guideline for library code.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmptyInput is returned by functions that require at least one sample.
var ErrEmptyInput = errors.New("stats: empty input")

// ErrLengthMismatch is returned when two paired slices differ in length.
var ErrLengthMismatch = errors.New("stats: length mismatch")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns an error for empty input
// or an out-of-range p.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptyInput
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range [0,100]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) (float64, error) {
	return Percentile(xs, 50)
}
