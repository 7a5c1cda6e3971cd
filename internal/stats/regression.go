package stats

import (
	"errors"
	"math"
)

// ErrSingular is returned when a least-squares system has no unique solution.
var ErrSingular = errors.New("stats: singular system")

// MSE returns the mean squared error between predictions and targets
// (Table 3's "MSE" column).
func MSE(pred, truth []float64) (float64, error) {
	if len(pred) != len(truth) {
		return 0, ErrLengthMismatch
	}
	if len(pred) == 0 {
		return 0, ErrEmptyInput
	}
	var s float64
	for i := range pred {
		d := pred[i] - truth[i]
		s += d * d
	}
	return s / float64(len(pred)), nil
}

// MAPE returns the mean absolute percentage error expressed as a fraction
// (0.15 == 15%). Zero targets are skipped; if every target is zero, MAPE
// returns an error since the quantity is undefined.
func MAPE(pred, truth []float64) (float64, error) {
	if len(pred) != len(truth) {
		return 0, ErrLengthMismatch
	}
	if len(pred) == 0 {
		return 0, ErrEmptyInput
	}
	var s float64
	var n int
	for i := range pred {
		if truth[i] == 0 {
			continue
		}
		s += math.Abs((pred[i] - truth[i]) / truth[i])
		n++
	}
	if n == 0 {
		return 0, errors.New("stats: MAPE undefined for all-zero targets")
	}
	return s / float64(n), nil
}

// R2 returns the coefficient of determination. A perfect predictor scores 1;
// a predictor no better than the target mean scores 0; worse predictors go
// negative. Constant targets make R2 undefined, reported as an error.
func R2(pred, truth []float64) (float64, error) {
	if len(pred) != len(truth) {
		return 0, ErrLengthMismatch
	}
	if len(pred) == 0 {
		return 0, ErrEmptyInput
	}
	m := Mean(truth)
	var ssRes, ssTot float64
	for i := range truth {
		r := truth[i] - pred[i]
		t := truth[i] - m
		ssRes += r * r
		ssTot += t * t
	}
	if ssTot == 0 {
		return 0, errors.New("stats: R2 undefined for constant targets")
	}
	return 1 - ssRes/ssTot, nil
}

// ExplainedVariance returns the explained-variance score
// 1 - Var(truth - pred)/Var(truth), matching
// sklearn.metrics.explained_variance_score used in Table 3.
func ExplainedVariance(pred, truth []float64) (float64, error) {
	if len(pred) != len(truth) {
		return 0, ErrLengthMismatch
	}
	if len(pred) == 0 {
		return 0, ErrEmptyInput
	}
	resid := make([]float64, len(pred))
	for i := range pred {
		resid[i] = truth[i] - pred[i]
	}
	varT := populationVariance(truth)
	if varT == 0 {
		return 0, errors.New("stats: explained variance undefined for constant targets")
	}
	return 1 - populationVariance(resid)/varT, nil
}

func populationVariance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// PolyFit fits a polynomial of the given degree to (xs, ys) by ordinary
// least squares on the Vandermonde system, returning coefficients in
// ascending-power order (c[0] + c[1]x + ... + c[degree]x^degree).
// The BATCH baseline (paper §6) uses polynomial regression over memory size
// to interpolate unmeasured configurations.
func PolyFit(xs, ys []float64, degree int) ([]float64, error) {
	if len(xs) != len(ys) {
		return nil, ErrLengthMismatch
	}
	if degree < 0 {
		return nil, errors.New("stats: negative polynomial degree")
	}
	if len(xs) < degree+1 {
		return nil, errors.New("stats: not enough points for requested degree")
	}
	cols := degree + 1
	design := make([][]float64, len(xs))
	for i, x := range xs {
		row := make([]float64, cols)
		p := 1.0
		for j := 0; j < cols; j++ {
			row[j] = p
			p *= x
		}
		design[i] = row
	}
	return LeastSquares(design, ys)
}

// PolyEval evaluates a polynomial with ascending-power coefficients at x.
func PolyEval(coef []float64, x float64) float64 {
	var y float64
	for i := len(coef) - 1; i >= 0; i-- {
		y = y*x + coef[i]
	}
	return y
}

// LeastSquares solves min ||A c - y||² via the normal equations with
// Gaussian elimination and partial pivoting. A is row-major (len(A) rows).
// Suitable for the small, well-conditioned systems used by the baselines.
func LeastSquares(a [][]float64, y []float64) ([]float64, error) {
	rows := len(a)
	if rows == 0 {
		return nil, ErrEmptyInput
	}
	if rows != len(y) {
		return nil, ErrLengthMismatch
	}
	cols := len(a[0])
	for _, row := range a {
		if len(row) != cols {
			return nil, errors.New("stats: ragged design matrix")
		}
	}

	// Normal equations: (AᵀA) c = Aᵀy.
	ata := make([][]float64, cols)
	aty := make([]float64, cols)
	for i := 0; i < cols; i++ {
		ata[i] = make([]float64, cols)
		for j := 0; j < cols; j++ {
			var s float64
			for r := 0; r < rows; r++ {
				s += a[r][i] * a[r][j]
			}
			ata[i][j] = s
		}
		var s float64
		for r := 0; r < rows; r++ {
			s += a[r][i] * y[r]
		}
		aty[i] = s
	}
	return SolveLinear(ata, aty)
}

// SolveLinear solves the square system M x = b using Gaussian elimination
// with partial pivoting. M is modified via an internal copy; the inputs are
// left untouched.
func SolveLinear(m [][]float64, b []float64) ([]float64, error) {
	n := len(m)
	if n == 0 {
		return nil, ErrEmptyInput
	}
	if len(b) != n {
		return nil, ErrLengthMismatch
	}
	// Work on copies.
	aug := make([][]float64, n)
	for i := range m {
		if len(m[i]) != n {
			return nil, errors.New("stats: non-square matrix")
		}
		aug[i] = make([]float64, n+1)
		copy(aug[i], m[i])
		aug[i][n] = b[i]
	}

	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(aug[r][col]) > math.Abs(aug[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(aug[pivot][col]) < 1e-12 {
			return nil, ErrSingular
		}
		aug[col], aug[pivot] = aug[pivot], aug[col]
		for r := col + 1; r < n; r++ {
			f := aug[r][col] / aug[col][col]
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				aug[r][c] -= f * aug[col][c]
			}
		}
	}

	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := aug[i][n]
		for j := i + 1; j < n; j++ {
			s -= aug[i][j] * x[j]
		}
		x[i] = s / aug[i][i]
	}
	return x, nil
}
