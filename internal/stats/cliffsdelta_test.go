package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCliffsDeltaKnownValues(t *testing.T) {
	tests := []struct {
		name string
		x, y []float64
		want float64
	}{
		{"identical", []float64{1, 2, 3}, []float64{1, 2, 3}, 0},
		{"x dominates", []float64{4, 5, 6}, []float64{1, 2, 3}, 1},
		{"y dominates", []float64{1, 2, 3}, []float64{4, 5, 6}, -1},
		// x={1,3}, y={2,4}: greater pairs = 1 (3>2), less pairs = 3 -> -0.5.
		{"partial overlap", []float64{1, 3}, []float64{2, 4}, -0.5},
		// x={2}, y={1,2,3}: greater=1, less=1, ties=1 -> delta = 0.
		{"with tie", []float64{2}, []float64{1, 2, 3}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := CliffsDelta(tt.x, tt.y)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("CliffsDelta = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCliffsDeltaEmptyInput(t *testing.T) {
	if _, err := CliffsDelta(nil, []float64{1}); err == nil {
		t.Error("expected error for empty x")
	}
	if _, err := CliffsDelta([]float64{1}, nil); err == nil {
		t.Error("expected error for empty y")
	}
}

// Property: delta in [-1, 1] and antisymmetric: delta(x,y) = -delta(y,x).
func TestCliffsDeltaAntisymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n1 := 1 + rng.Intn(30)
		n2 := 1 + rng.Intn(30)
		x := make([]float64, n1)
		y := make([]float64, n2)
		for i := range x {
			x[i] = float64(rng.Intn(10))
		}
		for i := range y {
			y[i] = float64(rng.Intn(10))
		}
		d1, err := CliffsDelta(x, y)
		if err != nil {
			return false
		}
		d2, err := CliffsDelta(y, x)
		if err != nil {
			return false
		}
		return d1 >= -1 && d1 <= 1 && almostEqual(d1, -d2, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Cross-check the O(n log n) implementation against the naive O(n^2) one.
func TestCliffsDeltaMatchesNaive(t *testing.T) {
	naive := func(x, y []float64) float64 {
		var greater, less int
		for _, xv := range x {
			for _, yv := range y {
				switch {
				case xv > yv:
					greater++
				case xv < yv:
					less++
				}
			}
		}
		return float64(greater-less) / float64(len(x)*len(y))
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		n1 := 1 + rng.Intn(20)
		n2 := 1 + rng.Intn(20)
		x := make([]float64, n1)
		y := make([]float64, n2)
		for i := range x {
			x[i] = float64(rng.Intn(6))
		}
		for i := range y {
			y[i] = float64(rng.Intn(6))
		}
		got, err := CliffsDelta(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if want := naive(x, y); !almostEqual(got, want, 1e-12) {
			t.Fatalf("CliffsDelta(%v, %v) = %v, naive = %v", x, y, got, want)
		}
	}
}
