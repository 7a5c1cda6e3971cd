package stats

import "sort"

// CliffsDelta computes Cliff's delta, a non-parametric ordinal effect size:
//
//	d = (#{(i,j): x_i > y_j} - #{(i,j): x_i < y_j}) / (n1 * n2)
//
// The result lies in [-1, 1]; 0 means complete overlap. The implementation
// sorts y once and uses binary search, giving O((n1+n2) log n2) instead of
// the naive O(n1*n2).
func CliffsDelta(x, y []float64) (float64, error) {
	if len(x) == 0 || len(y) == 0 {
		return 0, ErrEmptyInput
	}
	ys := append([]float64(nil), y...)
	sort.Float64s(ys)
	return CliffsDeltaPresorted(x, ys)
}

// CliffsDeltaPresorted is CliffsDelta with y already sorted ascending —
// the repeated-test fast path behind the drift detector's baseline rank
// cache (x may be in any order). Inputs are not modified.
func CliffsDeltaPresorted(x, ys []float64) (float64, error) {
	if len(x) == 0 || len(ys) == 0 {
		return 0, ErrEmptyInput
	}
	var greater, less int64
	for _, xv := range x {
		// Number of y strictly below xv.
		lo := sort.SearchFloat64s(ys, xv)
		// Number of y less than or equal to xv.
		hi := sort.Search(len(ys), func(i int) bool { return ys[i] > xv })
		greater += int64(lo)
		less += int64(len(ys) - hi)
	}
	return float64(greater-less) / (float64(len(x)) * float64(len(ys))), nil
}
