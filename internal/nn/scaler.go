package nn

import (
	"errors"
	"fmt"
	"math"
)

// Scaler standardizes features column-wise to zero mean and unit variance —
// the preprocessing applied to the metric features before training (§3.4).
// Constant columns are left centred but unscaled (divisor 1) so degenerate
// metrics cannot produce NaNs.
type Scaler struct {
	Mean []float64
	Std  []float64
}

// FitScaler learns column statistics from X.
func FitScaler(x [][]float64) (*Scaler, error) {
	if len(x) == 0 || len(x[0]) == 0 {
		return nil, errors.New("nn: cannot fit scaler on empty data")
	}
	cols := len(x[0])
	s := &Scaler{Mean: make([]float64, cols), Std: make([]float64, cols)}
	for _, row := range x {
		if len(row) != cols {
			return nil, errors.New("nn: ragged matrix")
		}
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	n := float64(len(x))
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, row := range x {
		for j, v := range row {
			d := v - s.Mean[j]
			s.Std[j] += d * d
		}
	}
	for j := range s.Std {
		if n > 1 {
			s.Std[j] = math.Sqrt(s.Std[j] / (n - 1))
		}
		if s.Std[j] == 0 {
			s.Std[j] = 1
		}
	}
	return s, nil
}

// Transform standardizes a single row (allocating a new slice).
func (s *Scaler) Transform(row []float64) ([]float64, error) {
	if len(row) != len(s.Mean) {
		return nil, fmt.Errorf("nn: row has %d columns, scaler expects %d", len(row), len(s.Mean))
	}
	out := make([]float64, len(row))
	for j, v := range row {
		out[j] = (v - s.Mean[j]) / s.Std[j]
	}
	return out, nil
}

// TransformBatch standardizes a matrix.
func (s *Scaler) TransformBatch(x [][]float64) ([][]float64, error) {
	out := make([][]float64, len(x))
	for i, row := range x {
		t, err := s.Transform(row)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// TransformInPlace standardizes a matrix in place, avoiding the per-row
// allocations of TransformBatch — the batch-prediction hot path, where the
// rows live in pooled buffers that would otherwise be copied just to be
// discarded.
func (s *Scaler) TransformInPlace(x [][]float64) error {
	for _, row := range x {
		if len(row) != len(s.Mean) {
			return fmt.Errorf("nn: row has %d columns, scaler expects %d", len(row), len(s.Mean))
		}
		for j, v := range row {
			row[j] = (v - s.Mean[j]) / s.Std[j]
		}
	}
	return nil
}
