package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{42}, 42},
		{"symmetric", []float64{-1, 0, 1}, 0},
		{"simple", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-2, -4}, -3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.in); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 15},
		{100, 50},
		{50, 35},
		{25, 20},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", tt.p, err)
		}
		if !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("Percentile(nil) should error")
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Error("Percentile(p=-1) should error")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("Percentile(p=101) should error")
	}
}

func TestMedianDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Median(xs); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Median mutated input: %v", xs)
	}
}

// Property: mean is bounded by min and max for any non-empty input.
func TestMeanBoundedProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := Mean(clean)
		return m >= slices.Min(clean)-1e-9 && m <= slices.Max(clean)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the population variance behind ExplainedVariance is
// non-negative and invariant under shifting.
func TestVarianceShiftInvarianceProperty(t *testing.T) {
	f := func(xs []float64, shift float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e6 {
			shift = 1
		}
		v1 := populationVariance(clean)
		if v1 < 0 {
			return false
		}
		shifted := make([]float64, len(clean))
		for i, x := range clean {
			shifted[i] = x + shift
		}
		v2 := populationVariance(shifted)
		return almostEqual(v1, v2, 1e-6*(1+v1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
